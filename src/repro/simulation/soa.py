"""Struct-of-arrays dispatch backend (``dispatch="vectorized"``).

The production dispatch mode; ``scan`` is the readable reference oracle.  The
engine loop, the decisions and every float operation are the same as the
oracle's — what changes is the data layout and the per-event Python frame
count:

* **Job attributes as columns** (:class:`SoAColumns`): release / weight /
  size-per-machine / deadline lists indexed by row, filled directly from
  :class:`~repro.workloads.generators.JobChunk` numpy columns on the chunked
  ingestion path (one ``tolist`` per column instead of one ``Job`` attribute
  walk per row).  The hot dispatch scans read these columns instead of
  chasing ``Job`` objects through a dict.
* **A fused λ-sweep** (:meth:`VectorizedState.spt_lambda_argmin`): one call
  per arrival that inlines the per-machine SPT order statistics (dispatch
  -order scan below :data:`~repro.simulation.state.PREFIX_SCAN_CUTOFF`,
  Fenwick prefix walk above it) and the ``lambda_ij`` argmin — replacing the
  ``on_arrival -> lambda_ij -> pending_spt_stats -> pending_prefix ->
  prefix_of`` chain of ~5 Python frames per machine per arrival.
* **An array event queue** (:class:`_ArrayEventQueue`): arrivals live in two
  parallel sorted lists consumed by a cursor (releases are non-decreasing on
  every shipped ingestion path, so pushes are appends); completions live in
  a small heap of plain tuples.  No :class:`~repro.simulation.events.Event`
  allocation on the fused loop.
* **A fused event loop** (:meth:`VectorizedStepper._run_core`): ``drain`` /
  ``advance_to`` process events without constructing ``Event`` objects or
  dispatching through ``step()``, with the same handler bodies inlined.

Select-next argmins come from the lazily-invalidated heaps and the order
statistics from the plain-list Fenwick trees of
:mod:`repro.simulation.indexed`.  Byte-identity with ``scan`` is by
construction — identical float expressions evaluated in identical order,
identical event ordering ``(time, kind, seq)``, identical tie-breaks — and is
enforced by the differential harness in ``tests/test_dispatch_equivalence.py``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable, Iterator, Sequence

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventKind
from repro.simulation.indexed import PendingPrefixStats, build_priority_ranks
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.schedule import ExecutionInterval, JobRecord
from repro.simulation.state import PREFIX_SCAN_CUTOFF, EngineState, RunningInfo
from repro.simulation.stepper import DecisionEvent, EngineStepper

__all__ = [
    "SoAColumns",
    "VectorizedState",
    "VectorizedStepper",
]


class SoAColumns:
    """Struct-of-arrays store of every job offered to a vectorized run.

    One row per offered job, in offer order.  Rows are addressed by job id:
    directly while ids are dense (``id == row``, the contiguous-generator
    common case), through an incrementally-maintained ``id -> row`` dict
    otherwise.  Columns hold exactly the float values the ``Job`` rows carry
    — chunk ingestion converts numpy ``float64`` via ``tolist``, which is
    bit-exact — so scans over columns reproduce scans over jobs.
    """

    __slots__ = ("num_machines", "ids", "releases", "weights", "deadlines",
                 "size_cols", "_row_of", "_dense")

    def __init__(self, num_machines: int) -> None:
        self.num_machines = num_machines
        self.ids: list[int] = []
        self.releases: list[float] = []
        self.weights: list[float] = []
        self.deadlines: list[float | None] = []
        #: One size column per machine: ``size_cols[i][row]`` is ``p_ij``.
        self.size_cols: list[list[float]] = [[] for _ in range(num_machines)]
        self._row_of: dict[int, int] | None = None
        self._dense = True

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dense(self) -> bool:
        """``True`` while job ids equal their row index (no dict needed)."""
        return self._dense

    def row_map(self) -> "dict[int, int] | None":
        """The ``id -> row`` map, or ``None`` while ids are dense."""
        return self._row_of

    def _append_ids(self, ids: Sequence[int]) -> None:
        existing = self.ids
        row = len(existing)
        if self._dense and all(job_id == row + k for k, job_id in enumerate(ids)):
            existing.extend(ids)
            return
        if self._dense:
            self._dense = False
            self._row_of = {job_id: r for r, job_id in enumerate(existing)}
        row_of = self._row_of
        for job_id in ids:
            row_of[job_id] = row
            existing.append(job_id)
            row += 1

    def ingest_jobs(self, rows: Iterable[Job]) -> None:
        """Append ``Job`` rows (the non-chunked ingestion path)."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        self._append_ids([job.id for job in rows])
        self.releases.extend(job.release for job in rows)
        self.weights.extend(job.weight for job in rows)
        self.deadlines.extend(job.deadline for job in rows)
        cols = self.size_cols
        for job in rows:
            sizes = job.sizes
            for machine in range(self.num_machines):
                cols[machine].append(sizes[machine])

    def ingest_chunk(self, chunk) -> None:
        """Append a validated :class:`JobChunk` — columns filled from its arrays.

        ``numpy.float64 -> float`` via ``tolist`` is exact, so these columns
        are bit-identical to what :meth:`ingest_jobs` over ``chunk.jobs()``
        would have stored, without materialising per-row tuples twice.
        """
        k = len(chunk)
        if k == 0:
            return
        self._append_ids(chunk.job_ids().tolist())
        self.releases.extend(chunk.releases.tolist())
        if chunk.weights is not None:
            self.weights.extend(chunk.weights.tolist())
        else:
            self.weights.extend([1.0] * k)
        if chunk.deadlines is not None:
            self.deadlines.extend(chunk.deadlines.tolist())
        else:
            self.deadlines.extend([None] * k)
        sizes = chunk.sizes
        for machine, col in enumerate(self.size_cols):
            col.extend(sizes[:, machine].tolist())


class VectorizedState(EngineState):
    """Engine state whose dispatch surrogates run over the SoA columns.

    Inherits all bookkeeping (pending sets, size sums, Fenwick add/remove,
    materialisation and rebuild policy) unchanged; adds the fused
    :meth:`spt_lambda_argmin` sweep the Theorem-1 policy calls once per
    arrival instead of one ``pending_spt_stats`` chain per machine.
    """

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self.columns = SoAColumns(instance.num_machines)
        # ``PendingSet`` never replaces its backing dict, so the sweep can
        # hold direct references and skip the ``__len__``/``__iter__``
        # method dispatch on every machine of every arrival.
        self._pending_items = [ms.pending._items for ms in self.machines]
        # Cached direct references into the materialised prefix stats, so
        # the sweep walks trees without per-query attribute/method hops.
        # Refreshed whenever ``prefix_stats`` changes identity (first
        # materialisation or an amortised rebuild).
        self._fen_stats: PendingPrefixStats | None = None
        self._fen_ranks: list[dict[int, int]] | None = None
        self._fen_counts = None
        self._fen_sizes = None

    def _fen_cache(self) -> "PendingPrefixStats | None":
        stats = self.prefix_stats
        if stats is not None and stats is not self._fen_stats:
            self._fen_stats = stats
            self._fen_ranks = stats._ranks
            self._fen_counts = stats._count
            self._fen_sizes = stats._size
        return stats

    def spt_lambda_argmin(self, job: Job, epsilon: float) -> tuple[int | None, float]:
        """``(argmin_i lambda_ij, min_i lambda_ij)`` — the Theorem-1 dispatch rule.

        Bit-identical to the reference per-machine loop
        (``lambda_ij = p_ij/eps + (waiting + p_ij) + succeeding * p_ij`` with
        strict ``<`` keeping the lowest machine index on ties): the order
        statistics come from the same scan-below-cutoff / Fenwick-above
        branch structure as
        :meth:`~repro.simulation.state.EngineState.pending_spt_stats`, with
        the same materialisation and amortised-rebuild timing (delegated to
        :meth:`pending_prefix` off the fast path), and float expressions are
        evaluated in the same order.  Returns ``(None, inf)`` when no machine
        is eligible.
        """
        pending_items = self._pending_items
        sizes = job.sizes
        release = job.release
        job_id = job.id
        inf = math.inf
        cutoff = PREFIX_SCAN_CUTOFF
        cols = self.columns
        size_cols = cols.size_cols
        releases = cols.releases
        row_of = cols.row_map()
        stats = self._fen_cache()
        unranked = self._stats_unranked
        fen_ranks = self._fen_ranks
        fen_counts = self._fen_counts
        fen_sizes = self._fen_sizes
        best_machine: int | None = None
        best_lambda = inf

        for machine in range(self.num_machines):
            p_ij = sizes[machine]
            if p_ij == inf:
                continue
            pending = pending_items[machine]
            q = len(pending)
            prefix = None
            if q > cutoff:
                if stats is not None and not unranked[machine]:
                    rank = fen_ranks[machine].get(job_id)
                    if rank is not None:
                        ctree = fen_counts[machine]
                        stree = fen_sizes[machine]
                        pos = rank
                        count = 0
                        total = 0.0
                        while pos > 0:
                            count += ctree[pos]
                            total += stree[pos]
                            pos -= pos & -pos
                        prefix = (count, total)
                if prefix is None:
                    # Not materialised yet, an unranked job in play, or a
                    # job outside the rank universe: the slow path owns the
                    # materialise/rebuild policy so its timing stays
                    # identical to the other dispatch modes.
                    prefix = self.pending_prefix(machine, job_id)
                    if self.prefix_stats is not stats:
                        stats = self._fen_cache()
                        fen_ranks = self._fen_ranks
                        fen_counts = self._fen_counts
                        fen_sizes = self._fen_sizes
            if prefix is not None:
                preceding, waiting = prefix
                succeeding = q - preceding
            elif q == 0:
                waiting = 0.0
                succeeding = 0
            else:
                # Dispatch-order scan over the SoA columns: same iteration
                # order and summation order as the reference scan in
                # pending_spt_stats, same ``(p, release, id) <= key``
                # tie-break unrolled into float comparisons.
                col = size_cols[machine]
                waiting = 0.0
                succeeding = 0
                if row_of is None:
                    for other_id in pending:
                        if other_id == job_id:
                            continue
                        p_other = col[other_id]
                        if p_other < p_ij:
                            waiting += p_other
                        elif p_other > p_ij:
                            succeeding += 1
                        else:
                            r_other = releases[other_id]
                            if r_other < release or (r_other == release and other_id < job_id):
                                waiting += p_other
                            else:
                                succeeding += 1
                else:
                    for other_id in pending:
                        if other_id == job_id:
                            continue
                        row = row_of[other_id]
                        p_other = col[row]
                        if p_other < p_ij:
                            waiting += p_other
                        elif p_other > p_ij:
                            succeeding += 1
                        else:
                            r_other = releases[row]
                            if r_other < release or (r_other == release and other_id < job_id):
                                waiting += p_other
                            else:
                                succeeding += 1
            lam = (p_ij / epsilon) + (waiting + p_ij) + succeeding * p_ij
            if lam < best_lambda:
                best_machine = machine
                best_lambda = lam
        return best_machine, best_lambda


class _ArrayEventQueue:
    """Drop-in :class:`~repro.simulation.events.EventQueue` replacement.

    Arrivals: two parallel lists sorted by time plus a consume cursor —
    pushes are O(1) appends on release-ordered streams (every shipped
    ingestion path), a ``bisect`` insert into the unconsumed suffix
    otherwise.  Completions: a heap of plain ``(time, seq, job_id, machine,
    version)`` tuples.  The pop order is exactly the reference ``(time,
    kind, seq)`` order: completions before arrivals at equal timestamps,
    insertion order within a kind.

    The object API (``push*``/``pop``/``peek_time``/``drain``/``len``)
    matches ``EventQueue`` so the inherited ``step()``/``finish()`` paths
    work unchanged; the fused loop reaches into the underlying arrays.
    """

    __slots__ = ("_arr_times", "_arr_ids", "_arr_pos", "_comp", "_seq")

    def __init__(self) -> None:
        self._arr_times: list[float] = []
        self._arr_ids: list[int] = []
        self._arr_pos = 0
        self._comp: list[tuple[float, int, int, int, int]] = []
        self._seq = 0

    def __len__(self) -> int:
        return (len(self._arr_times) - self._arr_pos) + len(self._comp)

    def __bool__(self) -> bool:
        return self._arr_pos < len(self._arr_times) or bool(self._comp)

    def push(self, event: Event) -> None:
        """Insert a generic event (API parity with ``EventQueue``)."""
        if event.kind == EventKind.ARRIVAL:
            self.push_arrival(event.time, event.job_id)
        else:
            self.push_completion(event.time, event.job_id, event.machine, event.version)

    def push_arrival(self, time: float, job_id: int) -> None:
        """Insert a job-arrival event (append on release-ordered streams)."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        times = self._arr_times
        if times and time < times[-1]:
            # Out-of-order offer: place it in the unconsumed suffix after
            # any equal timestamps — later pushes carry larger sequence
            # numbers in the reference heap, so stability preserves order.
            from bisect import bisect_right

            pos = bisect_right(times, time, lo=self._arr_pos)
            times.insert(pos, time)
            self._arr_ids.insert(pos, job_id)
        else:
            times.append(time)
            self._arr_ids.append(job_id)

    def push_completion(self, time: float, job_id: int, machine: int, version: int) -> None:
        """Insert a completion carrying the machine's version stamp."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        self._seq += 1
        heappush(self._comp, (time, self._seq, job_id, machine, version))

    def peek_time(self) -> float:
        """Timestamp of the next event without removing it."""
        pos = self._arr_pos
        arr_time = self._arr_times[pos] if pos < len(self._arr_times) else None
        comp_time = self._comp[0][0] if self._comp else None
        if arr_time is None and comp_time is None:
            raise SimulationError("peek on an empty event queue")
        if comp_time is None:
            return arr_time
        if arr_time is None:
            return comp_time
        return comp_time if comp_time <= arr_time else arr_time

    def pop(self) -> Event:
        """Remove and return the next event in ``(time, kind, seq)`` order."""
        pos = self._arr_pos
        arr_time = self._arr_times[pos] if pos < len(self._arr_times) else None
        comp = self._comp
        if comp and (arr_time is None or comp[0][0] <= arr_time):
            time, _, job_id, machine, version = heappop(comp)
            return Event(time=time, kind=EventKind.COMPLETION, job_id=job_id,
                         machine=machine, version=version)
        if arr_time is None:
            raise SimulationError("pop from an empty event queue")
        self._arr_pos = pos + 1
        return Event(time=arr_time, kind=EventKind.ARRIVAL, job_id=self._arr_ids[pos])

    def drain(self, is_stale=None, machine_versions=None) -> Iterator[Event]:
        """Yield the remaining events in order with ``EventQueue.drain`` filtering."""
        while self:
            event = self.pop()
            if machine_versions is not None and event.kind == EventKind.COMPLETION:
                if not (0 <= event.machine < len(machine_versions)):
                    continue
                if machine_versions[event.machine] != event.version:
                    continue
            if is_stale is not None and is_stale(event):
                continue
            yield event


class VectorizedStepper(EngineStepper):
    """Engine stepper of the ``vectorized`` dispatch mode.

    Same construction, validation, handler semantics and single-use
    contract as :class:`EngineStepper` — the overrides swap in the SoA
    state, the array event queue, a columnar rank build, a columnar
    ``offer_chunk`` ingestion path and the fused
    ``drain``/``advance_to`` loop.  ``step()`` is inherited and still
    processes one :class:`Event` at a time for API parity.
    """

    def _make_state(self, instance: Instance) -> VectorizedState:
        return VectorizedState(instance)

    def _make_queue(self) -> _ArrayEventQueue:
        return _ArrayEventQueue()

    def _rank_builder(self, state: VectorizedState):
        """Columnar rank build: lexsort straight over the SoA columns.

        When the policy exposes its priority key as SoA columns
        (``priority_rank_columns``) and every registered job is in the
        column store, the O(n·m) ``key_fn`` tuple walk of
        :func:`~repro.simulation.indexed.build_priority_ranks` collapses to
        one ``numpy.lexsort`` per machine over the already-resident columns.
        Keys are unique (they end in the job id), so the resulting ranks are
        identical to the generic build no matter the input order.  The
        builder closes over the columns and the policy hook, not the state.
        """
        rank_columns = getattr(self.policy, "priority_rank_columns", None)
        if rank_columns is None:
            return build_priority_ranks
        columns = state.columns

        def build_ranks(jobs, num_machines: int, key_fn) -> list[dict[int, int]]:
            if len(columns) != len(jobs):
                return build_priority_ranks(jobs, num_machines, key_fn)
            import numpy as np

            ids = columns.ids
            n = len(ids)
            ranks: list[dict[int, int]] = []
            for key_cols in rank_columns(columns):
                if n == 0:
                    ranks.append({})
                    continue
                arrays = [np.asarray(col, dtype=float) for col in key_cols]
                # lexsort sorts by the LAST key first; reverse so the first
                # column is the primary key (same convention as the generic
                # build over key tuples).
                order = np.lexsort(tuple(reversed(arrays)))
                rank_of = np.empty(n, dtype=np.int64)
                rank_of[order] = np.arange(n)
                ranks.append({job_id: int(rank) for job_id, rank in zip(ids, rank_of)})
            return ranks

        return build_ranks

    # -- ingestion -----------------------------------------------------------------

    def offer(self, job: Job) -> None:
        super().offer(job)
        self.state.columns.ingest_jobs((job,))

    def offer_many(self, jobs) -> int:
        rows = jobs if isinstance(jobs, (list, tuple)) else list(jobs)
        count = super().offer_many(rows)
        self.state.columns.ingest_jobs(rows)
        return count

    def offer_chunk(self, chunk, rows: "list[Job] | None" = None) -> int:
        """Bulk-offer a **validated** :class:`JobChunk`, columns from its arrays.

        ``rows`` is the chunk's materialised job list when the caller
        already built it (the session validates releases against its
        watermark on the rows); otherwise it is materialised here.  The
        offer contract (atomic validation, duplicate/floor checks) is the
        inherited ``offer_many``; only the column fill differs — straight
        from the chunk's numpy columns.
        """
        if rows is None:
            rows = chunk.jobs()
        count = super().offer_many(rows)
        self.state.columns.ingest_chunk(chunk)
        return count

    # -- fused stepping ------------------------------------------------------------

    def advance_to(self, t: float) -> int:
        processed = self._run_core(t)
        if t > self._floor:
            self._floor = t
        return processed

    def drain(self) -> int:
        return self._run_core(None)

    def _run_core(self, bound: "float | None") -> int:
        """Process events up to ``bound`` (all of them when ``None``).

        The bodies of ``step()`` / ``_handle_completion`` /
        ``_handle_arrival`` / ``_start_idle_machines`` inlined over the
        array queue: identical state mutations, record/interval contents,
        observer calls and machine-iteration order, without per-event
        ``Event`` construction or handler dispatch.  Any behavioural
        divergence from the inherited loop is a bug the differential
        harness is designed to catch.
        """
        if self._finished:
            if len(self.queue) and (bound is None or self.queue.peek_time() <= bound):
                raise SimulationError("cannot step a finished stepper")
            return 0
        state = self.state
        policy = self.policy
        machines = state.machines
        num_machines = state.num_machines
        observer = self.observer
        records = self.records
        intervals = self.intervals
        jobs = state.jobs_by_id
        pick_start = self.engine._pick_start
        on_arrival = policy.on_arrival
        recheck = self._recheck
        dispatched = self._dispatched_machine
        aq = self.queue
        arr_times = aq._arr_times
        arr_ids = aq._arr_ids
        comp = aq._comp
        inf = math.inf
        processed = 0
        floor = self._floor
        event_count = self.event_count
        # Local mirror of the consume cursor; written back on every
        # consume so mid-loop pushes (e.g. from an observer) keep the
        # queue view consistent.  ``arr_times`` only ever grows, so the
        # fresh ``len`` per iteration stays correct under such pushes.
        arr_pos = aq._arr_pos

        while True:
            arr_time = arr_times[arr_pos] if arr_pos < len(arr_times) else inf
            if comp and comp[0][0] <= arr_time:
                t = comp[0][0]
                if bound is not None and t > bound:
                    break
                _, _, job_id, machine, version = heappop(comp)
                state.time = t
                if t > floor:
                    floor = t
                event_count += 1
                processed += 1
                ms = machines[machine]
                info = ms.running
                if ms.version == version and info is not None and info.job.id == job_id:
                    ms.running = None
                    ms.version += 1
                    intervals.append(
                        ExecutionInterval(
                            machine=machine,
                            job_id=job_id,
                            start=info.start,
                            end=t,
                            speed=info.speed,
                            completed=True,
                        )
                    )
                    job = info.job
                    records[job_id] = JobRecord(
                        job_id=job_id,
                        weight=job.weight,
                        release=job.release,
                        machine=machine,
                        start=info.start,
                        completion=t,
                        rejected=False,
                    )
                    if observer is not None:
                        observer(DecisionEvent("complete", t, job_id, machine, info.speed))
                # A stale completion still re-offers its machine, exactly
                # like the event-object loop does.
                if recheck:
                    to_try = sorted({machine} | recheck)
                else:
                    to_try = (machine,)
            else:
                if arr_time == inf:
                    break
                if bound is not None and arr_time > bound:
                    break
                pos = arr_pos
                arr_pos = pos + 1
                aq._arr_pos = arr_pos
                t = arr_time
                state.time = t
                if t > floor:
                    floor = t
                event_count += 1
                processed += 1
                job = jobs[arr_ids[pos]]
                decision = on_arrival(t, job, state)
                machine = decision.machine
                if machine is None:
                    records[job.id] = JobRecord(
                        job_id=job.id,
                        weight=job.weight,
                        release=job.release,
                        machine=None,
                        start=None,
                        completion=None,
                        rejected=True,
                        rejection_time=t,
                        rejection_reason="immediate",
                    )
                    if observer is not None:
                        observer(DecisionEvent("reject", t, job.id, None, None, "immediate"))
                    touched: list[int] = []
                else:
                    if not (0 <= machine < num_machines):
                        raise SimulationError(
                            f"policy {policy.name!r} dispatched job {job.id} "
                            f"to invalid machine {machine}"
                        )
                    if math.isinf(job.sizes[machine]):
                        raise SimulationError(
                            f"policy {policy.name!r} dispatched job {job.id} "
                            f"to forbidden machine {machine}"
                        )
                    state.add_pending(machine, job)
                    dispatched[job.id] = machine
                    if observer is not None:
                        observer(DecisionEvent("dispatch", t, job.id, machine))
                    touched = [machine]
                rejections = decision.rejections
                if rejections:
                    apply_rejection = self._apply_rejection
                    for rejection in rejections:
                        touched.append(apply_rejection(t, rejection))
                if recheck:
                    to_try = sorted(set(touched) | recheck)
                elif len(touched) > 1:
                    to_try = sorted(set(touched))
                else:
                    to_try = touched

            for machine in to_try:
                ms = machines[machine]
                if ms.running is not None or not ms.pending:
                    recheck.discard(machine)
                    continue
                started = pick_start(t, policy, ms, state)
                if started is None:
                    recheck.add(machine)
                    continue
                recheck.discard(machine)
                sjob, speed, duration = started
                state.remove_pending(machine, sjob.id)
                finish = t + duration
                ms.running = RunningInfo(job=sjob, start=t, finish=finish, speed=speed)
                aq.push_completion(finish, sjob.id, machine, ms.version)
                if observer is not None:
                    observer(DecisionEvent("start", t, sjob.id, machine, speed))

        self._floor = floor
        self.event_count = event_count
        return processed
