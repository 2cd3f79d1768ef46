"""Source normalisation and machine partitioning for shard-and-merge solving.

:func:`repro.parallel.shard_solve` accepts three source shapes — a fully
built :class:`~repro.simulation.instance.Instance`, a trace file path, or an
iterable of :class:`~repro.workloads.generators.JobChunk` blocks (what the
scenario catalog and the chunked generators produce).  This module turns any
of them into the one canonical form the parallel pipeline works on: a
materialised chunk list with **explicit job ids** plus the machine fleet.

Explicit ids matter twice: hash partitioning must be a pure function of the
id (so the partition is stable under re-chunking), and the per-shard decision
streams must name jobs by their *global* ids so the merged stream reads like
one coordinator's.  Machines are partitioned strided (shard ``i`` of ``k``
owns global machines ``{j : j % k == i}``), each shard renumbering its group
to the consecutive local ids the :class:`Instance` invariant requires;
:func:`restrict_chunk` slices the size matrix down to a group and rejects
partitions that leave any job with no finite size (an infeasible shard).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.machine import Machine
from repro.utils.serialization import canonical_json, column_json_texts
from repro.workloads.generators import JobChunk
from repro.workloads.traces import chunks_from_jobs, read_trace_chunks

__all__ = [
    "machine_groups",
    "normalise_source",
    "restrict_chunk",
    "source_fingerprint",
]


def machine_groups(num_machines: int, num_shards: int) -> tuple[tuple[int, ...], ...]:
    """Strided machine partition: shard ``i`` owns ``{j : j % num_shards == i}``.

    Striding (rather than contiguous blocks) keeps heterogeneous fleets
    balanced — speed factors that trend along the machine index spread
    evenly across shards.  Every shard must own at least one machine.
    """
    if num_shards <= 0:
        raise InvalidParameterError(f"num_shards must be positive, got {num_shards}")
    if num_shards > num_machines:
        raise InvalidParameterError(
            f"cannot split {num_machines} machine(s) into {num_shards} shards; "
            "every shard needs at least one machine"
        )
    return tuple(
        tuple(range(index, num_machines, num_shards)) for index in range(num_shards)
    )


def _fleet_for(
    chunks: "list[JobChunk]",
    machines: "int | Sequence[Machine] | None",
    alpha: float,
) -> tuple[Machine, ...]:
    if machines is None:
        width = next((c.sizes.shape[1] for c in chunks if len(c)), None)
        if width is None:
            raise InvalidParameterError(
                "empty job source: pass machines= to size the fleet explicitly"
            )
        return Machine.fleet(width, alpha=alpha)
    if isinstance(machines, int):
        return Machine.fleet(machines, alpha=alpha)
    fleet = tuple(machines)
    if not fleet or not all(isinstance(m, Machine) for m in fleet):
        raise InvalidParameterError(
            "machines must be a positive integer or a non-empty sequence of Machine"
        )
    return fleet


def _with_explicit_ids(chunks: Iterable[JobChunk]) -> list[JobChunk]:
    """Materialise a chunk stream, assigning effective ids where implicit.

    The assigned id is the job's global stream position (exactly what
    :meth:`JobChunk.job_ids` would report for a well-formed stream), made
    explicit so hash partitioning, decision streams and the merged artifact
    all name jobs identically regardless of how the source was chunked.
    """
    out: list[JobChunk] = []
    position = 0
    for chunk in chunks:
        if not (hasattr(chunk, "sizes") and hasattr(chunk, "validate")):
            raise InvalidParameterError(
                f"expected a stream of JobChunk blocks, got {type(chunk).__name__}"
            )
        chunk.validate()
        ids = (
            chunk.ids
            if chunk.ids is not None
            else np.arange(position, position + len(chunk), dtype=np.int64)
        )
        out.append(replace(chunk, ids=ids))
        position += len(chunk)
    return out


def normalise_source(
    source: "Instance | str | Path | Iterable[JobChunk]",
    machines: "int | Sequence[Machine] | None" = None,
    alpha: float = 3.0,
) -> tuple[list[JobChunk], tuple[Machine, ...]]:
    """Resolve any accepted job source into ``(chunks, fleet)``.

    * an :class:`Instance` contributes both jobs and fleet (``machines``
      must then be ``None`` — the instance already carries its machines);
    * a path is read as a trace file (format sniffed from the extension);
    * anything else is treated as an iterable of :class:`JobChunk` blocks.

    The returned chunks always carry explicit ids (see
    :func:`_with_explicit_ids`); the fleet defaults to identical unit
    machines matching the trace width.
    """
    if isinstance(source, Instance):
        if machines is not None:
            raise InvalidParameterError(
                "machines= only applies to trace/chunk sources; "
                "an Instance already carries its fleet"
            )
        chunks = _with_explicit_ids(chunks_from_jobs((0, job) for job in source.jobs))
        return chunks, source.machines
    if isinstance(source, (str, Path)):
        chunks = _with_explicit_ids(read_trace_chunks(source))
    else:
        chunks = _with_explicit_ids(source)
    fleet = _fleet_for(chunks, machines, alpha)
    width = next((c.sizes.shape[1] for c in chunks if len(c)), len(fleet))
    if width != len(fleet):
        raise InvalidParameterError(
            f"source jobs have {width} per-machine sizes but the fleet has "
            f"{len(fleet)} machine(s)"
        )
    return chunks, fleet


#: Compact canonical text of ``Job.to_dict()`` (keys sorted).
_JOB_TEMPLATE = '{"deadline":%s,"id":%s,"release":%s,"sizes":[%s],"weight":%s}'


def source_fingerprint(chunks: Sequence[JobChunk], fleet: Sequence[Machine]) -> str:
    """Content hash of the normalised source (jobs + machines).

    A pure function of the job rows and the fleet — independent of chunking,
    of whether the source arrived as an instance, a trace file or a chunk
    stream, and of everything about how it will be solved.  Artifact keys
    are derived from this, so identical workloads share cache entries across
    entry points.

    The digest is :func:`~repro.utils.serialization.stable_hash` of
    ``{"jobs": [job.to_dict(), ...], "machines": [machine.to_dict(), ...]}``.
    The canonical text is rendered straight from the chunk columns and
    hashed chunk by chunk, without building a :class:`Job` per row.
    """
    digest = hashlib.sha256(b'{"jobs":[')
    separator = ""
    for chunk in chunks:
        count = len(chunk)
        if count == 0:
            continue
        width = chunk.sizes.shape[1]
        sizes = column_json_texts(chunk.sizes.ravel())
        rows = zip(
            ["null"] * count if chunk.deadlines is None else column_json_texts(chunk.deadlines),
            column_json_texts(chunk.job_ids()),
            column_json_texts(chunk.releases),
            [",".join(sizes[k : k + width]) for k in range(0, count * width, width)],
            ["1.0"] * count if chunk.weights is None else column_json_texts(chunk.weights),
        )
        text = ",".join([_JOB_TEMPLATE % row for row in rows])
        digest.update((separator + text).encode("utf-8"))
        separator = ","
    machines = canonical_json([machine.to_dict() for machine in fleet])
    digest.update(f'],"machines":{machines}}}'.encode("utf-8"))
    return digest.hexdigest()[:16]


def restrict_chunk(chunk: JobChunk, cols: Sequence[int], shard: int) -> JobChunk:
    """Slice a chunk's size matrix down to one shard's machine group.

    Column ``j`` of the result is the job's size on the group's ``j``-th
    machine (the shard's *local* machine ``j``).  A job left with no finite
    size anywhere in the group cannot run on this shard — the partition is
    infeasible and rejected up front rather than failing inside a worker.
    """
    index = np.asarray(cols, dtype=np.intp)
    sizes = np.ascontiguousarray(chunk.sizes[:, index])
    feasible = np.isfinite(sizes).any(axis=1)
    if not bool(feasible.all()):
        bad = int(chunk.job_ids()[int(np.flatnonzero(~feasible)[0])])
        raise InvalidParameterError(
            f"job {bad} has no finite size on shard {shard}'s machine group "
            f"{tuple(int(c) for c in cols)}; this partition makes the instance infeasible"
        )
    out = replace(chunk, sizes=sizes)
    out.validate()
    return out
