"""Shard-and-merge parallel solving: partition, fan out, merge, cache.

:func:`shard_solve` answers the ROADMAP's partitioned-coordination question
operationally: split one job stream across ``k`` independent
:class:`~repro.service.session.SchedulerSession` solvers (each owning a
disjoint machine group), run them across worker processes, and merge the
per-shard decision streams into one combined outcome with a merged
objective breakdown.

Determinism contract (enforced by tests and the CI ``shard-identity`` gate):

* the merged artifact is a pure function of
  ``(source, algorithm, params, k, partition)`` — byte-identical regardless
  of ``workers`` or result interleaving (workers compute, the coordinator
  persists, and every payload field is derived from per-shard state, never
  from arrival order);
* ``k == 1`` is byte-identical to plain :func:`repro.solve`: the single
  shard sees the same jobs with the same ids on the same fleet, and every
  merged-row field degenerates to the exact expression the batch facade
  evaluated (left-to-right ``sum()`` over one element is the identity; the
  rejection fractions divide the same floats).

Artifacts go into a content-addressed
:class:`~repro.campaigns.store.ArtifactStore` (one payload per shard plus
one merged payload), so re-runs are resumable: already-solved shards are
cache hits and only missing ones are recomputed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.campaigns.runner import run_mapped
from repro.campaigns.store import ArtifactStore
from repro.exceptions import InvalidParameterError, StreamingNotSupportedError
from repro.parallel.partition import (
    machine_groups,
    normalise_source,
    restrict_chunk,
    source_fingerprint,
)
from repro.parallel.tasks import (
    PARALLEL_SCHEMA_VERSION,
    ShardTask,
    artifact_keys,
    run_shard_task,
    shard_payload,
)
from repro.service.session import open_session
from repro.simulation.instance import Instance
from repro.simulation.machine import Machine
from repro.solvers.registry import get_solver
from repro.utils.serialization import jsonify
from repro.workloads.generators import JobChunk
from repro.workloads.traces import SHARD_MODES, shard as shard_stream

__all__ = [
    "ShardSolveResult",
    "merge_decision_streams",
    "shard_solve",
    "solve_to_store",
]

_IDENTITY_FIELDS = ("algorithm", "label", "model", "objective")


def merge_decision_streams(streams: Sequence[Sequence[Mapping]]) -> list[dict]:
    """Time-ordered k-way merge of per-shard decision streams.

    Each stream is already internally ordered (one session's event log);
    the merge interleaves them by event time, breaking ties toward the
    lower-indexed shard so the result is a deterministic function of the
    streams alone.  With one stream this is the identity.
    """
    merged: list[dict] = []
    heap = [
        (stream[0]["time"], index, 0)
        for index, stream in enumerate(streams)
        if stream
    ]
    heapq.heapify(heap)
    while heap:
        _, index, position = heapq.heappop(heap)
        stream = streams[index]
        merged.append(dict(stream[position]))
        position += 1
        if position < len(stream):
            heapq.heappush(heap, (stream[position]["time"], index, position))
    return merged


def _merged_totals(shard_totals: Sequence[Mapping]) -> dict:
    return {
        "num_jobs": sum(int(totals["num_jobs"]) for totals in shard_totals),
        "rejected_count": sum(int(totals["rejected_count"]) for totals in shard_totals),
        "rejected_weight": sum(totals["rejected_weight"] for totals in shard_totals),
        "total_weight": sum(totals["total_weight"] for totals in shard_totals),
    }


def _merged_row(shard_rows: Sequence[Mapping], totals: Mapping) -> dict:
    """Combine per-shard report rows into one merged row.

    Additive fields (objective value, every breakdown component, rejected
    count) sum left-to-right over shards; the rejection fractions recompute
    from the summed raw totals exactly as
    :mod:`repro.simulation.metrics` defines them.  At ``k == 1`` every
    expression degenerates to the plain solve's value bit-for-bit.
    """
    base = shard_rows[0]
    row: dict[str, Any] = {name: base[name] for name in _IDENTITY_FIELDS}
    row["objective_value"] = sum(r["objective_value"] for r in shard_rows)
    row["rejected_count"] = int(totals["rejected_count"])
    num_jobs = int(totals["num_jobs"])
    row["rejected_fraction"] = (
        totals["rejected_count"] / num_jobs if num_jobs != 0 else 0.0
    )
    row["rejected_weight_fraction"] = (
        totals["rejected_weight"] / totals["total_weight"]
        if totals["total_weight"] != 0
        else 0.0
    )
    for name in base:
        if name.startswith("breakdown_"):
            row[name] = sum(r[name] for r in shard_rows)
    return row


def _merged_payload(
    *,
    algorithm: str,
    params: Mapping[str, Any],
    fingerprint: str,
    num_shards: int,
    partition: str,
    shard_keys: Sequence[str],
    shard_payloads: Sequence[Mapping],
) -> dict:
    rows = [payload["row"] for payload in shard_payloads]
    totals = _merged_totals([payload["totals"] for payload in shard_payloads])
    return {
        "schema": PARALLEL_SCHEMA_VERSION,
        "kind": "merged",
        "algorithm": algorithm,
        "params": jsonify(dict(params)),
        "fingerprint": fingerprint,
        "num_shards": num_shards,
        "partition": partition,
        "machine_groups": [list(payload["machine_group"]) for payload in shard_payloads],
        "num_jobs": totals["num_jobs"],
        "engine_events": sum(int(payload["engine_events"]) for payload in shard_payloads),
        "shards": list(shard_keys),
        "shard_objectives": [row["objective_value"] for row in rows],
        "totals": totals,
        "row": _merged_row(rows, totals),
        "events": merge_decision_streams([payload["events"] for payload in shard_payloads]),
    }


@dataclass(frozen=True)
class ShardSolveResult:
    """Outcome of one :func:`shard_solve` (or :func:`solve_to_store`) call.

    ``payload`` is the merged artifact exactly as persisted; ``shard_rows``
    are the per-shard report rows; ``cached`` flags which shards were store
    hits (``durations`` holds ``None`` for those).  ``store_root`` is
    ``None`` for in-memory runs.
    """

    algorithm: str
    num_shards: int
    partition: str
    workers: int
    shard_keys: tuple[str, ...]
    merged_key: str
    payload: Mapping[str, Any]
    shard_rows: tuple[Mapping[str, Any], ...]
    cached: tuple[bool, ...]
    merged_cached: bool
    durations: tuple[float | None, ...]
    store_root: Path | None

    @property
    def row(self) -> dict:
        """Merged report row (same shape as ``SolveOutcome.as_row()``)."""
        return dict(self.payload["row"])

    @property
    def events(self) -> list[dict]:
        """Merged, time-ordered decision stream across all shards."""
        return list(self.payload["events"])

    @property
    def objective_value(self) -> float:
        return self.payload["row"]["objective_value"]

    @property
    def num_jobs(self) -> int:
        return int(self.payload["num_jobs"])

    @property
    def shard_objectives(self) -> tuple[float, ...]:
        return tuple(self.payload["shard_objectives"])

    def describe(self) -> str:
        """One-line human summary for the CLI."""
        computed = sum(1 for hit in self.cached if not hit)
        return (
            f"{self.algorithm} over {self.num_jobs} job(s) in {self.num_shards} "
            f"shard(s) [{self.partition}]: objective {self.objective_value:.6g}, "
            f"{computed} shard(s) computed, {len(self.cached) - computed} cached "
            f"[{self.merged_key}]"
        )


def _as_store(store: "ArtifactStore | str | Path | None") -> ArtifactStore | None:
    """Open a store argument: a store, a spec (``sqlite:PATH``, …) or a path."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore.open(store)


def shard_solve(
    source: "Instance | str | Path | Iterable[JobChunk]",
    algorithm: str = "rejection-flow",
    num_shards: int = 2,
    *,
    partition: str = "hash",
    workers: int = 1,
    dispatch: str | None = None,
    store: "ArtifactStore | str | Path | None" = None,
    machines: "int | Sequence[Machine] | None" = None,
    alpha: float = 3.0,
    **params: Any,
) -> ShardSolveResult:
    """Solve a job stream with ``num_shards`` independent parallel solvers.

    The stream is partitioned by :func:`repro.workloads.traces.shard` under
    ``partition`` (``"hash"`` — stable splitmix64 of the job id,
    ``"tenant"`` — jobs sharing a weight class stay together,
    ``"round-robin"`` — by stream position); the fleet is partitioned
    strided (shard ``i`` owns global machines ``{j : j % k == i}``).  Each
    shard runs a full :class:`~repro.service.session.SchedulerSession` over
    its sub-stream and local machine group; shards are mapped over
    ``workers`` processes via the campaign fan-out, and their decision
    streams are merged time-ordered into one combined outcome.

    With ``store`` set (an :class:`ArtifactStore`, a store spec such as
    ``sqlite:PATH``, or a directory path), every shard
    payload and the merged payload are persisted content-addressed; re-runs
    skip already-solved shards.  ``store=None`` runs fully in memory.

    See the module docstring for the determinism contract.
    """
    spec = get_solver(algorithm)
    if not spec.supports_streaming:
        raise StreamingNotSupportedError(
            f"algorithm '{spec.algorithm_id}' does not support streaming sessions, "
            "which shard_solve requires"
        )
    if partition not in SHARD_MODES:
        raise InvalidParameterError(
            f"unknown partition '{partition}'; expected one of {SHARD_MODES}"
        )
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    validated = spec.validate_params(params)
    chunks, fleet = normalise_source(source, machines=machines, alpha=alpha)
    groups = machine_groups(len(fleet), num_shards)

    fingerprint = source_fingerprint(chunks, fleet)
    shard_keys, merged_key = artifact_keys(
        fingerprint, spec.algorithm_id, validated, num_shards, partition
    )
    store_obj = _as_store(store)

    cached = tuple(
        store_obj is not None and store_obj.has(key) for key in shard_keys
    )
    pending: list[int] = [index for index in range(num_shards) if not cached[index]]
    tasks: list[ShardTask] = []
    for index in pending:
        sub_stream = tuple(
            restrict_chunk(chunk, groups[index], shard=index)
            for chunk in shard_stream(
                chunks, num_shards, index, mode=partition, keep_ids=True
            )
        )
        tasks.append(
            ShardTask(
                shard=index,
                num_shards=num_shards,
                algorithm=spec.algorithm_id,
                params=tuple(sorted(validated.items())),
                dispatch=dispatch,
                machine_group=groups[index],
                machines=tuple(
                    (fleet[g].speed_factor, fleet[g].alpha) for g in groups[index]
                ),
                chunks=sub_stream,
            )
        )

    payloads: dict[int, Mapping] = {}
    durations: list[float | None] = [None] * num_shards
    for position, payload, duration in run_mapped(tasks, run_shard_task, workers=workers):
        index = pending[position]
        payloads[index] = payload
        durations[index] = duration
        if store_obj is not None:
            store_obj.save(shard_keys[index], payload)
    for index in range(num_shards):
        if index not in payloads:
            payloads[index] = store_obj.load(shard_keys[index])
    ordered = [payloads[index] for index in range(num_shards)]

    merged_cached = store_obj is not None and store_obj.has(merged_key)
    if merged_cached:
        merged = store_obj.load(merged_key)
    else:
        merged = _merged_payload(
            algorithm=spec.algorithm_id,
            params=validated,
            fingerprint=fingerprint,
            num_shards=num_shards,
            partition=partition,
            shard_keys=shard_keys,
            shard_payloads=ordered,
        )
        if store_obj is not None:
            store_obj.save(merged_key, merged)

    return ShardSolveResult(
        algorithm=spec.algorithm_id,
        num_shards=num_shards,
        partition=partition,
        workers=workers,
        shard_keys=tuple(shard_keys),
        merged_key=merged_key,
        payload=merged,
        shard_rows=tuple(payload["row"] for payload in ordered),
        cached=cached,
        merged_cached=merged_cached,
        durations=tuple(durations),
        store_root=store_obj.root if store_obj is not None else None,
    )


def solve_to_store(
    source: "Instance | str | Path | Iterable[JobChunk]",
    algorithm: str = "rejection-flow",
    *,
    store: "ArtifactStore | str | Path",
    partition: str = "hash",
    dispatch: str | None = None,
    machines: "int | Sequence[Machine] | None" = None,
    alpha: float = 3.0,
    **params: Any,
) -> ShardSolveResult:
    """Plain (unsharded) solve that persists the ``k == 1`` artifact pair.

    Deliberately an *independent* code path from :func:`shard_solve`: no
    partitioning, no machine renumbering, no fan-out — one session over the
    raw stream on the full fleet, then the shared payload builders.  The CI
    ``shard-identity`` gate ``diff -r``-compares a store written by this
    function against one written by ``shard_solve(..., num_shards=1)``;
    byte equality proves the shard pipeline at ``k == 1`` is the identity.
    """
    spec = get_solver(algorithm)
    if not spec.supports_streaming:
        raise StreamingNotSupportedError(
            f"algorithm '{spec.algorithm_id}' does not support streaming sessions, "
            "which solve_to_store requires"
        )
    if partition not in SHARD_MODES:
        raise InvalidParameterError(
            f"unknown partition '{partition}'; expected one of {SHARD_MODES}"
        )
    if store is None:
        raise InvalidParameterError("solve_to_store requires a store")
    validated = spec.validate_params(params)
    chunks, fleet = normalise_source(source, machines=machines, alpha=alpha)
    store_obj = _as_store(store)

    fingerprint = source_fingerprint(chunks, fleet)
    shard_keys, merged_key = artifact_keys(
        fingerprint, spec.algorithm_id, validated, 1, partition
    )
    group = tuple(range(len(fleet)))

    cached = store_obj.has(shard_keys[0])
    duration: float | None = None
    if cached:
        payload = store_obj.load(shard_keys[0])
    else:
        [(_, payload, duration)] = run_mapped(
            [
                ShardTask(
                    shard=0,
                    num_shards=1,
                    algorithm=spec.algorithm_id,
                    params=tuple(sorted(validated.items())),
                    dispatch=dispatch,
                    machine_group=group,
                    machines=tuple((m.speed_factor, m.alpha) for m in fleet),
                    chunks=tuple(chunks),
                )
            ],
            _run_plain,
            workers=1,
        )
        store_obj.save(shard_keys[0], payload)

    merged_cached = store_obj.has(merged_key)
    if merged_cached:
        merged = store_obj.load(merged_key)
    else:
        merged = _merged_payload(
            algorithm=spec.algorithm_id,
            params=validated,
            fingerprint=fingerprint,
            num_shards=1,
            partition=partition,
            shard_keys=shard_keys,
            shard_payloads=[payload],
        )
        store_obj.save(merged_key, merged)

    return ShardSolveResult(
        algorithm=spec.algorithm_id,
        num_shards=1,
        partition=partition,
        workers=1,
        shard_keys=tuple(shard_keys),
        merged_key=merged_key,
        payload=merged,
        shard_rows=(payload["row"],),
        cached=(cached,),
        merged_cached=merged_cached,
        durations=(duration,),
        store_root=store_obj.root,
    )


def _run_plain(task: ShardTask) -> dict:
    """Unsharded solve path for :func:`solve_to_store`.

    Opens one session over the raw chunk stream on the full fleet — no
    :func:`repro.workloads.traces.shard`, no column restriction, no machine
    renumbering (the machine group is the identity map) — then builds the
    payload with the shared :func:`shard_payload` builder.
    """
    fleet = tuple(
        Machine(id=local, speed_factor=speed, alpha=alpha)
        for local, (speed, alpha) in enumerate(task.machines)
    )
    session = open_session(
        task.algorithm,
        fleet,
        dispatch=task.dispatch,
        name="solve",
        retain_events=True,
        **dict(task.params),
    )
    for chunk in task.chunks:
        session.submit_many(chunk)
    outcome = session.finalize()
    return shard_payload(
        shard=0,
        num_shards=1,
        machine_group=task.machine_group,
        outcome=outcome,
        events=session.events,
    )
