"""Streaming scheduler sessions: incremental ingestion over the engine stepper.

The paper's setting is online — jobs are revealed at their release times and
must be dispatched immediately — but the batch facade (:func:`repro.solve`)
requires the complete instance up front.  A :class:`SchedulerSession` is the
streaming surface on top of the reentrant
:class:`~repro.simulation.stepper.EngineStepper`:

>>> import repro
>>> session = repro.open_session("rejection-flow", machines=2, epsilon=0.5)
>>> session.submit(repro.Job(id=0, release=0.0, sizes=(3.0, 4.0)))
>>> _ = session.poll()                    # decision events so far
>>> outcome = session.finalize()          # -> the facade's SolveOutcome
>>> outcome.objective
'total-flow-time'

Contracts:

* **Jobs arrive in release order.**  Submissions must be non-decreasing in
  release date (exactly the :class:`~repro.simulation.instance.Instance`
  invariant); ids must be unique.
* **Deferred processing.**  ``submit``/``submit_many`` only ingest; events
  are processed when the caller observes the session — :meth:`poll` (process
  everything up to the newest submitted release), :meth:`advance_to` (up to
  an explicit time bound, a declaration that no earlier arrival is coming),
  or :meth:`finalize` (drain everything).  Processing order is identical to
  the batch engine loop, so ingesting an instance and then finalizing yields
  **byte-identical** schedules and objectives to ``repro.solve`` — in both
  dispatch modes (the equivalence suite asserts it).  A session *polled
  mid-stream* is fully deterministic (the same submit/poll interleaving
  always reproduces the same result — what snapshot/restore relies on), but
  once queues outgrow the prefix-stats cutoff its Fenwick trees are built
  over the jobs ingested so far rather than the full instance, so its float
  prefix sums can differ from the batch run's in the last bits; the
  byte-identical-to-batch guarantee is therefore stated for the
  ingest-then-finalize replay pattern.
* **Checkpointing by replay.**  :meth:`snapshot` captures the session
  configuration plus the ingestion/advance operation log as canonical JSON;
  :meth:`SchedulerSession.restore` replays it, which — everything being
  deterministic — reproduces the exact engine state, decision stream and
  final outcome.  Long-running sessions survive restarts by persisting the
  snapshot.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.exceptions import (
    InvalidParameterError,
    SessionStateError,
    StreamingNotSupportedError,
)
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.machine import Machine
from repro.simulation.stepper import DecisionEvent
from repro.solvers.facade import _build_policy, _ENGINES, outcome_from_result
from repro.solvers.outcome import SolveOutcome
from repro.solvers.registry import available_algorithms, get_solver
from repro.utils.serialization import canonical_json, jsonify

__all__ = ["SchedulerSession", "open_session", "streaming_algorithms", "SNAPSHOT_SCHEMA_VERSION"]

#: Bump when the snapshot payload layout changes; restore refuses mismatches
#: instead of silently misreading an old checkpoint.
SNAPSHOT_SCHEMA_VERSION = 1


def streaming_algorithms() -> list[str]:
    """Ids of all registered solvers that can run as a streaming session."""
    return sorted(
        algorithm_id
        for algorithm_id, spec in available_algorithms().items()
        if spec.supports_streaming
    )


def _session_class(algorithm: str) -> type:
    """Session class for ``algorithm``: adaptive solvers get the meta wrapper.

    Solvers tagged ``"adaptive"`` open as
    :class:`~repro.adaptive.meta.MetaSchedulerSession` (adds ``hot_switch``
    and live telemetry); everything else gets the plain
    :class:`SchedulerSession`.  Imported lazily — the adaptive package sits
    on top of this module.
    """
    spec = get_solver(algorithm)
    if "adaptive" in spec.tags:
        from repro.adaptive.meta import MetaSchedulerSession

        return MetaSchedulerSession
    return SchedulerSession


def _normalise_machines(machines: "int | Sequence[Machine]", alpha: float) -> tuple[Machine, ...]:
    if isinstance(machines, int):
        return Machine.fleet(machines, alpha=alpha)
    fleet = tuple(machines)
    if not fleet or not all(isinstance(m, Machine) for m in fleet):
        raise InvalidParameterError(
            "machines must be a positive integer or a non-empty sequence of Machine"
        )
    return fleet


class _DecisionLog:
    """A session's stepper observer: the decision-event buffer and live counters.

    The counters behind :meth:`SchedulerSession.stats` are O(1) to read, so
    observability never scans the decision history.  The log is its own
    object rather than a bound method of the session so that the stepper
    never references its session: a dropped session is freed by reference
    counting alone, with no session → stepper → session cycle.
    """

    __slots__ = ("events", "dispatched", "started", "completed", "rejected", "last_event_time")

    def __init__(self) -> None:
        self.events: list[DecisionEvent] = []
        self.dispatched = 0
        self.started = 0
        self.completed = 0
        self.rejected = 0
        self.last_event_time = 0.0

    def observe(self, event: DecisionEvent) -> None:
        """Record the event and bump the live counters."""
        self.events.append(event)
        kind = event.kind
        if kind == "complete":
            self.completed += 1
        elif kind == "reject":
            self.rejected += 1
        elif kind == "start":
            self.started += 1
        else:
            self.dispatched += 1
        if event.time > self.last_event_time:
            self.last_event_time = event.time


class SchedulerSession:
    """A long-running, resumable streaming run of one registered algorithm.

    Built through :func:`open_session`; see the module docstring for the
    ingestion/processing contract.  The session owns a policy, an engine in
    the requested dispatch mode, and an :class:`EngineStepper`; every
    scheduling decision the stepper makes is recorded in the session's
    decision-event stream (:attr:`events`, :meth:`poll`).
    """

    def __init__(
        self,
        algorithm: str = "rejection-flow",
        machines: "int | Sequence[Machine]" = 4,
        *,
        alpha: float = 3.0,
        dispatch: str | None = None,
        name: str | None = None,
        retain_events: bool = True,
        **params: Any,
    ) -> None:
        spec = get_solver(algorithm)
        if not spec.supports_streaming:
            raise StreamingNotSupportedError(
                f"algorithm {algorithm!r} (model {spec.model!r}) does not support "
                f"streaming sessions; streaming-capable: {streaming_algorithms()}"
            )
        self.spec = spec
        self.params = spec.validate_params(params)
        self.machines = _normalise_machines(machines, alpha)
        self.name = name or f"session:{algorithm}"
        self.policy = _build_policy(spec, self.params)
        fleet_instance = Instance(self.machines, (), name=self.name)
        self.engine = _ENGINES[spec.model](fleet_instance, dispatch=dispatch)
        self._log = _DecisionLog()
        self._events = self._log.events
        self._stepper = self.engine.stepper(self.policy, observer=self._log.observe)
        self._jobs: list[Job] = []
        self._watermark = 0.0
        #: When ``False``, events handed out by poll()/take_events() are
        #: dropped from the buffer — a long-lived serve stream would
        #: otherwise retain its whole decision history in memory.
        self._retain_events = retain_events
        self._consumed = 0
        self._consumed_total = 0
        self._ops: list[tuple] = []
        self._outcome: SolveOutcome | None = None

    # -- introspection -------------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """Registry id the session runs."""
        return self.spec.algorithm_id

    @property
    def dispatch(self) -> str:
        """Dispatch mode of the underlying engine (``vectorized`` or the ``scan`` oracle)."""
        return self.engine.dispatch

    @property
    def time(self) -> float:
        """Simulation time of the last processed event."""
        return self._stepper.state.time

    @property
    def num_submitted(self) -> int:
        """Number of jobs ingested so far."""
        return len(self._jobs)

    @property
    def finalized(self) -> bool:
        """``True`` once :meth:`finalize` has sealed the run."""
        return self._outcome is not None

    @property
    def events(self) -> tuple[DecisionEvent, ...]:
        """Every decision event emitted so far (dispatch/start/complete/reject).

        With ``retain_events=False`` only the not-yet-consumed tail remains
        (events handed out by :meth:`poll`/:meth:`take_events` are freed).
        """
        return tuple(self._events)

    @property
    def events_emitted(self) -> int:
        """Total decision events emitted so far (consumed or still buffered).

        Monotone over the session's lifetime regardless of
        ``retain_events`` — the service layer reports it per hosted session.
        """
        return self._consumed_total + (len(self._events) - self._consumed)

    def __len__(self) -> int:
        return len(self._jobs)

    def stats(self) -> dict:
        """Live observability counters (cheap: no decision-history scan).

        ``backlog`` counts jobs in flight — submitted but neither completed
        nor rejected; ``last_event_time`` is the timestamp of the newest
        decision event (0.0 before any).  Also the payload of the service
        wire protocol's ``stats`` op.
        """
        submitted = len(self._jobs)
        log = self._log
        return {
            "algorithm": self.spec.algorithm_id,
            "dispatch": self.engine.dispatch,
            "finalized": self.finalized,
            "submitted": submitted,
            "dispatched": log.dispatched,
            "started": log.started,
            "completed": log.completed,
            "rejected": log.rejected,
            "backlog": submitted - log.completed - log.rejected,
            "events_emitted": self.events_emitted,
            "last_event_time": log.last_event_time,
            "watermark": self._watermark,
        }

    # -- ingestion -----------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Ingest one job.  Releases must be non-decreasing across submissions."""
        self._require_open("submit")
        if not isinstance(job, Job):
            raise InvalidParameterError(f"submit expects a Job, got {type(job).__name__}")
        if len(job.sizes) != len(self.machines):
            raise InvalidParameterError(
                f"job {job.id}: size vector has {len(job.sizes)} entries, "
                f"expected {len(self.machines)}"
            )
        if job.release < self._watermark:
            raise SessionStateError(
                f"job {job.id} released at {job.release} arrives before the session's "
                f"ingest watermark {self._watermark}; submissions must be "
                "non-decreasing in release date"
            )
        self._stepper.offer(job)
        self._jobs.append(job)
        self._watermark = job.release
        self._record_jobs(1)

    def submit_many(self, jobs) -> int:
        """Ingest a batch: an iterable of :class:`Job` or a ``JobChunk``.

        ``JobChunk`` rows (the bulk format of the chunked generators,
        :meth:`~repro.workloads.generators.InstanceGenerator.iter_job_chunks`)
        are bulk-validated once and materialised through the trusted path.
        Returns the number of jobs ingested.

        This is the throughput path: one pass over the rows with the same
        per-job contract as :meth:`submit` (machine count, non-decreasing
        releases, unique ids) but without per-job call overhead, and one
        op-log entry for the whole batch.
        """
        self._require_open("submit_many")
        rows: list[Job]
        chunk = None
        if hasattr(jobs, "validate") and hasattr(jobs, "jobs"):  # JobChunk duck type
            jobs.validate()
            chunk = jobs
            rows = jobs.jobs()
        else:
            rows = list(jobs)
        if not rows:
            return 0
        num_machines = len(self.machines)
        watermark = self._watermark
        for job in rows:
            if len(job.sizes) != num_machines:
                raise InvalidParameterError(
                    f"job {job.id}: size vector has {len(job.sizes)} entries, "
                    f"expected {num_machines}"
                )
            if job.release < watermark:
                raise SessionStateError(
                    f"job {job.id} released at {job.release} arrives before the session's "
                    f"ingest watermark {watermark}; submissions must be "
                    "non-decreasing in release date"
                )
            watermark = job.release
        offer_chunk = getattr(self._stepper, "offer_chunk", None)
        if chunk is not None and offer_chunk is not None:
            # Vectorized dispatch: the stepper fills its SoA columns straight
            # from the chunk's numpy arrays instead of re-walking the rows.
            count = offer_chunk(chunk, rows)
        else:
            count = self._stepper.offer_many(rows)
        self._jobs.extend(rows)
        self._watermark = watermark
        self._record_jobs(count)
        return count

    # -- processing / observation --------------------------------------------------

    def poll(self) -> list[DecisionEvent]:
        """Process everything up to the newest submitted release; return new events.

        The returned list contains only events not yet handed out by a
        previous :meth:`poll`.  With the default ``retain_events=True`` the
        full stream additionally stays available on :attr:`events`; with
        ``retain_events=False`` handed-out events are freed.
        """
        self._require_open("poll")
        processed = self._stepper.advance_to(self._watermark)
        if processed:
            # A poll that processed nothing is a replay no-op (the watermark
            # is unchanged, so it neither advances state nor moves the
            # ingest bound); skipping it keeps the op log — and every
            # snapshot — from growing with one entry per quiet poll on the
            # serve hot path.
            self._record_advance(self._watermark)
        return self._new_events()

    def advance_to(self, t: float) -> list[DecisionEvent]:
        """Process every event up to time ``t``; return new events.

        Advancing past the ingest watermark is the caller's declaration that
        no job with an earlier release will be submitted afterwards (later
        out-of-order submissions are rejected).
        """
        self._require_open("advance_to")
        if t != t:
            # NaN compares false both ways, so the backends would disagree
            # on what "up to NaN" means; it would also enter the op log.
            raise SessionStateError("cannot advance to NaN")
        self._stepper.advance_to(t)
        self._watermark = max(self._watermark, t)
        self._record_advance(t)
        return self._new_events()

    def _record_jobs(self, count: int) -> None:
        """Record ``count`` submissions, coalescing consecutive submit runs.

        The op log only needs the *interleaving* of submissions and
        advances; the jobs themselves live once in ``self._jobs`` (append
        order = submission order), so a run of submissions is one
        ``("jobs", n)`` entry — O(#advances) log size instead of one entry
        (and one retained tuple) per job on long-lived streams.
        """
        if self._ops and self._ops[-1][0] == "jobs":
            self._ops[-1] = ("jobs", self._ops[-1][1] + count)
        else:
            self._ops.append(("jobs", count))

    def _record_advance(self, t: float) -> None:
        """Append an advance op, compacting the common shapes.

        Two compactions keep the log from growing per-job on long streams:

        * consecutive advances fold into the later one (no submission in
          between, so they replay identically — the bound is monotone and
          processing deterministic);
        * the serve pattern — one submission followed by a poll to its
          release — becomes a run-length ``("each", k)`` entry: k times
          "submit the next job, then advance to its release".
        """
        ops = self._ops
        if ops and ops[-1][0] == "advance":
            ops[-1] = ("advance", max(ops[-1][1], t))
            return
        if ops and ops[-1] == ("jobs", 1) and t == self._jobs[-1].release:
            if len(ops) >= 2 and ops[-2][0] == "each":
                ops[-2] = ("each", ops[-2][1] + 1)
                ops.pop()
            else:
                ops[-1] = ("each", 1)
            return
        ops.append(("advance", t))

    def take_events(self) -> list[DecisionEvent]:
        """Hand out events not yet consumed, without processing anything.

        Unlike :meth:`poll` this works on a finalized session too, so
        callers can collect the events the final drain emitted.
        """
        return self._new_events()

    def _new_events(self) -> list[DecisionEvent]:
        fresh = self._events[self._consumed :]
        self._consumed_total += len(fresh)
        if self._retain_events:
            self._consumed = len(self._events)
        else:
            # The observer holds a reference to the list, so free in place.
            self._events.clear()
            self._consumed = 0
        return fresh

    # -- sealing -------------------------------------------------------------------

    def finalize(self) -> SolveOutcome:
        """Drain all remaining events and return the batch facade's outcome.

        The outcome is computed by the exact code path :func:`repro.solve`
        uses (objective breakdown, rejection statistics, policy diagnostics),
        over an :class:`Instance` assembled from the submitted jobs — so a
        replayed instance finalizes to byte-identical schedules and
        objectives.  Idempotent: later calls return the same outcome.
        """
        if self._outcome is not None:
            return self._outcome
        self._stepper.drain()
        # The session enforced the instance invariants (machine count,
        # release ordering, id uniqueness) on every submission, so the
        # assembled instance skips the O(n) re-validation.
        instance = Instance.trusted(self.machines, tuple(self._jobs), name=self.name)
        result = self._stepper.finish(instance)
        self._outcome = outcome_from_result(self.spec, self.params, result, policy=self.policy)
        return self._outcome

    def _require_open(self, action: str) -> None:
        if self._outcome is not None:
            raise SessionStateError(f"cannot {action} on a finalized session")

    # -- checkpointing -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint: configuration plus the full ingestion/advance op log.

        The snapshot is plain JSON-able data (canonical through
        :func:`repro.utils.serialization.canonical_json`); floats round-trip
        exactly, so :meth:`restore` rebuilds the session by deterministic
        replay — same engine state, same decision stream, same final
        outcome.
        """
        self._require_open("snapshot")
        ops: list[dict] = []
        cursor = 0
        for op in self._ops:
            if op[0] in ("jobs", "each"):
                span = self._jobs[cursor : cursor + op[1]]
                cursor += op[1]
                kind = "submit_many" if op[0] == "jobs" else "submit_poll_each"
                ops.append({"op": kind, "jobs": [job.to_dict() for job in span]})
            else:
                ops.append({"op": "advance", "t": op[1]})
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "algorithm": self.spec.algorithm_id,
            "params": jsonify(self.params),
            "machines": [m.to_dict() for m in self.machines],
            "dispatch": self.engine.dispatch,
            "name": self.name,
            "retain_events": self._retain_events,
            "consumed": self._consumed_total,
            "ops": ops,
        }

    def to_json(self) -> str:
        """Canonical-JSON form of :meth:`snapshot`."""
        return canonical_json(self.snapshot())

    @classmethod
    def restore(cls, snapshot: "Mapping | str") -> "SchedulerSession":
        """Rebuild a session from a :meth:`snapshot` (dict or JSON string).

        Replays the recorded operations in order; determinism of the engine,
        the policy and the dispatch structures guarantees the
        restored session is in the same state as the one that was
        snapshotted (including the exact decision-event stream).
        """
        if isinstance(snapshot, str):
            import json

            snapshot = json.loads(snapshot)
        schema = snapshot.get("schema")
        if schema != SNAPSHOT_SCHEMA_VERSION:
            raise SessionStateError(
                f"cannot restore snapshot with schema {schema!r}; "
                f"this version reads schema {SNAPSHOT_SCHEMA_VERSION}"
            )
        machines = tuple(Machine.from_dict(m) for m in snapshot["machines"])
        params = {str(k): v for k, v in dict(snapshot["params"]).items()}
        if cls is SchedulerSession:
            # Restoring through the base class still honours per-algorithm
            # session classes (the adaptive meta wrapper).
            cls = _session_class(snapshot["algorithm"])
        session = cls(
            snapshot["algorithm"],
            machines,
            dispatch=snapshot.get("dispatch"),
            name=snapshot.get("name"),
            retain_events=bool(snapshot.get("retain_events", True)),
            **params,
        )
        for op in snapshot["ops"]:
            if op["op"] == "submit_many":
                session.submit_many([Job.from_dict(row) for row in op["jobs"]])
            elif op["op"] == "submit_poll_each":
                for row in op["jobs"]:
                    session.submit(Job.from_dict(row))
                    session.poll()
            elif op["op"] == "advance":
                session._stepper.advance_to(op["t"])
                session._watermark = max(session._watermark, float(op["t"]))
                session._ops.append(("advance", float(op["t"])))
            else:
                raise SessionStateError(f"unknown snapshot op {op!r}")
        # Restore the consume cursor so already-handed-out events are not
        # re-delivered.  Replaying "submit_poll_each" ops consumed events
        # through poll() (tracked in _consumed_total), while raw "advance"
        # ops bypassed the cursor and left their events buffered.
        consumed = int(snapshot.get("consumed", 0))
        if session._retain_events:
            session._consumed = min(consumed, len(session._events))
        else:
            # Match the original's freed-buffer state: of the still-buffered
            # events, the first consumed-but-not-yet-freed ones go (in
            # place — the observer holds the list); only the unconsumed
            # tail stays resident.
            still_buffered = max(0, consumed - session._consumed_total)
            del session._events[: min(still_buffered, len(session._events))]
            session._consumed = 0
        session._consumed_total = consumed
        return session


def open_session(
    algorithm: str = "rejection-flow",
    machines: "int | Sequence[Machine]" = 4,
    *,
    alpha: float = 3.0,
    dispatch: str | None = None,
    name: str | None = None,
    retain_events: bool = True,
    **params: Any,
) -> SchedulerSession:
    """Open a streaming :class:`SchedulerSession` for a registered algorithm.

    Parameters
    ----------
    algorithm:
        Registry id of a streaming-capable solver (``supports_streaming`` in
        :func:`repro.list_algorithms`); anything else raises
        :class:`~repro.exceptions.StreamingNotSupportedError`.
    machines:
        A machine count (a fleet of identical unit machines with power
        exponent ``alpha`` is created) or an explicit
        :class:`~repro.simulation.machine.Machine` sequence.
    dispatch:
        Engine dispatch mode override: one of
        :data:`~repro.simulation.engine.DISPATCH_MODES` (``vectorized``, the
        production backend, or the ``scan`` reference oracle); defaults to
        :func:`~repro.simulation.engine.default_dispatch_mode` (``vectorized``
        unless ``REPRO_DISPATCH`` overrides it).  Both modes finalize to
        byte-identical outcomes.
    name:
        Label used for the assembled instance and result.
    retain_events:
        Keep the full decision-event stream on :attr:`SchedulerSession.events`
        (the default).  Long-lived streams that only consume events through
        ``poll()`` pass ``False`` to keep memory bounded: handed-out events
        are freed.
    params:
        Algorithm parameters, validated against the registry schema before
        the session opens.
    """
    return _session_class(algorithm)(
        algorithm,
        machines,
        alpha=alpha,
        dispatch=dispatch,
        name=name,
        retain_events=retain_events,
        **params,
    )
