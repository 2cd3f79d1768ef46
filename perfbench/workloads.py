"""The four benchmark workloads, each driving one user path of ``repro``.

Every workload runs ``rejection-flow`` at ε = 0.25 (Theorem 1 budget: at
most 2ε = 50% of jobs rejected) on 8 machines, and follows one protocol:

* ``setup(seed, workdir)`` builds the inputs from the seed (and boots the
  server for ``serve-tcp``); the runner times it;
* ``run_once(tracer)`` performs one timed iteration and returns an
  :class:`Iteration`; with a tracer it records a span around each public
  call, and ``trace_targets`` names the program attributes the runner
  wraps for the traced iteration;
* ``check(iteration)`` verifies the iteration's output outside the timed
  window and returns the failures it found;
* ``close()`` releases what ``setup`` made.

The program only ever receives the generated inputs: an instance, job
chunks, a trace file or wire rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.campaigns.store import ArtifactStore
from repro.parallel import solve as parallel_solve
from repro.service import session as service_session
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import MAX_LINE_BYTES
from repro.simulation.engine import FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.validation import validate_result
from repro.solvers import facade
from repro.utils.serialization import canonical_json, stable_hash
from repro.workloads.adversarial import overload_burst_instance
from repro.workloads.scenarios import get_scenario
from repro.workloads.traces import read_trace_chunks, write_ndjson_trace

from tracing import NO_SPAN, Tracer

ALGORITHM = "rejection-flow"
EPSILON = 0.25
#: Theorem 1: at most a 2ε share of the jobs is rejected.
BUDGET = 2 * EPSILON
MACHINES = 8


@dataclass
class Iteration:
    """What one timed iteration did and produced."""

    wall: float
    jobs: int
    #: Canonical bytes of the iteration's output; equal across iterations.
    output: bytes
    rejected: int
    objective: float
    op_latencies: list
    ops: int
    failed_ops: int = 0
    #: Per-layer counters measured by the iteration (name -> value).
    counts: dict = field(default_factory=dict)
    #: The program's result object, kept until ``check`` has run.
    artifact: object = None


def _no_span(name: str):
    return NO_SPAN


def _span_fn(tracer: "Tracer | None") -> Callable:
    return tracer.span if tracer is not None else _no_span


def _outcome_bytes(outcome) -> bytes:
    """Summary row plus a digest of every execution interval."""
    intervals = [
        (iv.machine, iv.job_id, iv.start, iv.end, iv.completed)
        for iv in outcome.result.intervals
    ]
    digest = hashlib.sha256(canonical_json(intervals).encode("utf-8")).hexdigest()
    return canonical_json({"row": outcome.as_row(), "intervals": digest}).encode("utf-8")


def _check_outcome(outcome, counts: dict) -> list[str]:
    errors = []
    started = time.perf_counter()
    report = validate_result(outcome.result, raise_on_error=False)
    counts["simulation.validate_s"] = time.perf_counter() - started
    if not report.ok:
        errors.append(f"validate_result: {report.violations[:3]}")
    errors += _check_budget(outcome.rejected_fraction)
    return errors


def _check_budget(rejected_fraction: float) -> list[str]:
    if rejected_fraction > BUDGET + 1e-12:
        return [f"rejected fraction {rejected_fraction} exceeds 2ε = {BUDGET}"]
    return []


class Workload:
    name = ""
    #: The span whose time the layer spans below it should cover.
    coverage_root = "bench.iteration"
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setup_repeats = 3

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_once(self, tracer: "Tracer | None") -> Iteration:
        raise NotImplementedError

    def trace_targets(self, tracer: Tracer) -> list:
        return []

    def check(self, it: Iteration) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class BatchBurst(Workload):
    """``repro.solve`` on a long-job burst followed by short jobs (n = 20,000).

    ``overload_burst_instance`` has no random part; the seed relabels the
    job ids with a random permutation, which changes tie-breaking order but
    not the load.
    """

    name = "batch-burst"

    def setup(self, seed: int, workdir: Path) -> None:
        base = overload_burst_instance(num_machines=MACHINES, burst_jobs=2450, trailing_shorts=400)
        ids = np.random.default_rng(seed).permutation(len(base.jobs))
        self.instance = Instance.build(
            base.machines,
            [replace(job, id=int(new_id)) for job, new_id in zip(base.jobs, ids)],
            name=base.name,
        )

    def trace_targets(self, tracer: Tracer) -> list:
        return [
            (FlowTimeEngine, "run", lambda fn: tracer.wrap("simulation.engine_run", fn)),
            (facade, "outcome_from_result", lambda fn: tracer.wrap("solvers.outcome", fn)),
        ]

    def run_once(self, tracer: "Tracer | None") -> Iteration:
        span = _span_fn(tracer)
        started = time.perf_counter()
        with span("bench.iteration"), span("solvers.solve"):
            outcome = repro.solve(self.instance, ALGORITHM, epsilon=EPSILON)
        wall = time.perf_counter() - started
        return Iteration(
            wall=wall,
            jobs=len(self.instance.jobs),
            output=_outcome_bytes(outcome),
            rejected=outcome.rejected_count,
            objective=outcome.objective_value,
            op_latencies=[wall],
            ops=1,
            counts={"simulation.events": outcome.result.extras["events"]},
            artifact=outcome,
        )

    def check(self, it: Iteration) -> list[str]:
        return _check_outcome(it.artifact, it.counts)


class IngestTrace(Workload):
    """Session chunk ingest of an NDJSON ``heavy-tail-pareto`` trace (n = 10,000)."""

    name = "ingest-trace"
    jobs = 10_000
    chunk_size = 64

    def setup(self, seed: int, workdir: Path) -> None:
        self.path = workdir / "heavy-tail-pareto.ndjson"
        chunks = get_scenario("heavy-tail-pareto").job_chunks(self.jobs, MACHINES, seed)
        with open(self.path, "w", encoding="utf-8") as stream:
            write_ndjson_trace(chunks, stream)

    def trace_targets(self, tracer: Tracer) -> list:
        return [
            (service_session, "outcome_from_result", lambda fn: tracer.wrap("solvers.outcome", fn)),
        ]

    def run_once(self, tracer: "Tracer | None") -> Iteration:
        span = _span_fn(tracer)
        latencies: list[float] = []
        events = 0
        chunks = 0
        backlog_max = 0
        started = time.perf_counter()
        with span("bench.iteration"):
            source = read_trace_chunks(self.path, chunk_size=self.chunk_size)
            if tracer is not None:
                source = tracer.wrap_iter("workloads.parse", source)
            with span("service.open_session"):
                session = repro.open_session(
                    ALGORITHM, MACHINES, retain_events=False, epsilon=EPSILON
                )
            for chunk in source:
                op_started = time.perf_counter()
                with span("service.submit_many"):
                    session.submit_many(chunk)
                with span("service.poll"):
                    events += len(session.poll())
                latencies.append(time.perf_counter() - op_started)
                chunks += 1
                if tracer is not None:
                    with span("service.stats"):
                        backlog_max = max(backlog_max, session.stats()["backlog"])
            with span("service.finalize"):
                outcome = session.finalize()
                events += len(session.take_events())
        wall = time.perf_counter() - started
        return Iteration(
            wall=wall,
            jobs=session.num_submitted,
            output=_outcome_bytes(outcome),
            rejected=outcome.rejected_count,
            objective=outcome.objective_value,
            op_latencies=latencies,
            ops=chunks,
            counts={
                "service.chunks": chunks,
                "service.events": events,
                "service.backlog_max": backlog_max,
                "simulation.events": outcome.result.extras["events"],
            },
            artifact=outcome,
        )

    def check(self, it: Iteration) -> list[str]:
        errors = _check_outcome(it.artifact, it.counts)
        if it.jobs != self.jobs:
            errors.append(f"ingested {it.jobs} jobs, expected {self.jobs}")
        return errors


class ServiceOpError(Exception):
    """The server answered a request with an ``error`` line."""


class WireClient:
    """One blocking TCP connection speaking the service's NDJSON protocol.

    Unlike ``repro.service.client.ServiceClient`` it counts the bytes each
    way and lets a traced run time encoding, socket I/O and decoding apart.
    """

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.reader = self.sock.makefile("rb")
        self.bytes_out = 0
        self.bytes_in = 0

    def request(self, row: dict, span: Callable) -> tuple[dict, int]:
        """Send one control line; return the terminating reply and the
        number of decision lines streamed before it."""
        with span("service.round_trip"):
            with span("service.encode"):
                data = (canonical_json(row) + "\n").encode("utf-8")
            with span("service.io"):
                self.sock.sendall(data)
                self.bytes_out += len(data)
            decisions = 0
            while True:
                with span("service.io"):
                    raw = self.reader.readline(MAX_LINE_BYTES)
                    self.bytes_in += len(raw)
                if not raw:
                    raise ConnectionError("server closed the connection")
                with span("service.decode"):
                    reply = json.loads(raw)
                    event = reply.get("event")
                    if event == "decision":
                        decisions += 1
                        continue
                if event == "error":
                    raise ServiceOpError(reply.get("error", "unknown service error"))
                return reply, decisions

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class ServeTcp(Workload):
    """``repro serve --listen`` in its own process, driven by a closed loop.

    Each client thread owns one connection and streams its sessions in
    32-job submits, each followed by a poll; the next submit goes out only
    after the poll's reply has arrived.
    """

    name = "serve-tcp"
    coverage_root = "service.round_trip"
    scenarios = ("multi-tenant-mix", "heavy-tail-pareto")
    jobs_per_session = 4_000
    chunk_size = 32
    boot_timeout_s = 60.0

    def __init__(self) -> None:
        self.proc: "subprocess.Popen | None" = None
        self.port = 0
        self.clients: list[WireClient] = []
        self.iteration = 0
        self.expected_rows: "list[str] | None" = None
        self.server_rss_mb = 0.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.close()
        self.seed = seed
        self.instances = [
            get_scenario(name).instance(self.jobs_per_session, MACHINES, seed + k)
            for k, name in enumerate(self.scenarios)
        ]
        self.chunks = [
            [
                [job.to_dict() for job in instance.jobs[i : i + self.chunk_size]]
                for i in range(0, len(instance.jobs), self.chunk_size)
            ]
            for instance in self.instances
        ]
        self._boot(workdir)
        num_clients = min(len(self.instances), len(os.sched_getaffinity(0)))
        self.clients = [WireClient("127.0.0.1", self.port) for _ in range(num_clients)]
        reply, _ = self.clients[0].request({"op": "hello", "v": PROTOCOL_VERSION}, _no_span)
        if reply.get("event") != "hello":
            raise RuntimeError(f"unexpected hello reply {reply}")

    def _boot(self, workdir: Path) -> None:
        src = str(Path.cwd() / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        log_path = workdir / "server.log"
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], self.boot_timeout_s)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            log_tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"server did not report its listening address:\n{log_tail}")
        self.port = int(json.loads(line)["port"])

    def _drive(self, client: WireClient, k: int, tracer, stats: dict) -> None:
        """Stream session ``k`` over ``client``, counting into ``stats``."""
        span = _span_fn(tracer)
        name = f"bench-{self.seed}-{self.iteration}-{k}"
        latencies = stats["latencies"]
        try:
            stats["ops"] += 1
            client.request(
                {
                    "op": "create",
                    "v": PROTOCOL_VERSION,
                    "session": name,
                    "algorithm": ALGORITHM,
                    "machines": MACHINES,
                    "params": {"epsilon": EPSILON},
                },
                span,
            )
            submit = {"op": "submit", "v": PROTOCOL_VERSION, "session": name}
            poll = {"op": "poll", "v": PROTOCOL_VERSION, "session": name}
            for rows in self.chunks[k]:
                op_started = time.perf_counter()
                while True:
                    stats["ops"] += 1
                    reply, _ = client.request({**submit, "jobs": rows}, span)
                    if reply.get("event") != "throttled":
                        break
                    # Flow control: drain the session, then retry the submit.
                    stats["throttled"] += 1
                    stats["ops"] += 1
                    stats["decisions"] += client.request(poll, span)[1]
                stats["ops"] += 1
                stats["decisions"] += client.request(poll, span)[1]
                latencies.append(time.perf_counter() - op_started)
            stats["ops"] += 1
            final, decisions = client.request(
                {"op": "close", "v": PROTOCOL_VERSION, "session": name}, span
            )
            stats["decisions"] += decisions
            stats["row"] = {
                key: value for key, value in final.items() if key not in ("event", "session")
            }
        except (ServiceOpError, OSError) as exc:
            stats["failed"] += 1
            stats["error"] = f"session {name}: {type(exc).__name__}: {exc}"

    def run_once(self, tracer: "Tracer | None") -> Iteration:
        self.iteration += 1
        # One stats dict per session: client threads never share a counter.
        stats = [
            {"ops": 0, "failed": 0, "throttled": 0, "decisions": 0, "latencies": [],
             "row": None, "error": None}
            for _ in self.instances
        ]
        bytes_out = sum(c.bytes_out for c in self.clients)
        bytes_in = sum(c.bytes_in for c in self.clients)
        cpu_before = _proc_cpu_s(self.proc.pid)
        started = time.perf_counter()
        threads = []
        for c, client in enumerate(self.clients):
            sessions = range(c, len(self.instances), len(self.clients))

            def work(client=client, sessions=sessions) -> None:
                for k in sessions:
                    self._drive(client, k, tracer, stats[k])

            thread = threading.Thread(target=work, name=f"bench-client-{c}")
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        server_cpu = _proc_cpu_s(self.proc.pid) - cpu_before
        if not self.server_rss_mb:
            self.server_rss_mb = _proc_hwm_mb(self.proc.pid)
        jobs = sum(len(instance.jobs) for instance in self.instances)
        rows = [st["row"] for st in stats]
        done = [row for row in rows if row is not None]
        total = {key: sum(st[key] for st in stats) for key in ("ops", "failed", "throttled", "decisions")}
        return Iteration(
            wall=wall,
            jobs=jobs,
            output=canonical_json(rows).encode("utf-8"),
            rejected=sum(row["rejected_count"] for row in done),
            objective=sum(row["objective_value"] for row in done),
            op_latencies=[x for st in stats for x in st["latencies"]],
            ops=total["ops"],
            failed_ops=total["failed"],
            counts={
                "service.server_cpu_s": server_cpu,
                "service.round_trips": total["ops"],
                "service.throttled": total["throttled"],
                "service.errors": total["failed"],
                "service.decision_lines": total["decisions"],
                "service.bytes_out_per_job": (
                    sum(c.bytes_out for c in self.clients) - bytes_out
                ) / jobs,
                "service.bytes_in_per_job": (
                    sum(c.bytes_in for c in self.clients) - bytes_in
                ) / jobs,
            },
            artifact=[st["error"] for st in stats if st["error"]],
        )

    def check(self, it: Iteration) -> list[str]:
        errors = list(it.artifact)
        if self.expected_rows is None:
            self.expected_rows = [
                canonical_json(repro.solve(instance, ALGORITHM, epsilon=EPSILON).as_row())
                for instance in self.instances
            ]
        rows = json.loads(it.output)
        for k, row in enumerate(rows):
            if row is None:
                continue
            if canonical_json(row) != self.expected_rows[k]:
                errors.append(f"session {k}: final row differs from batch repro.solve")
        if it.jobs:
            errors += _check_budget(it.rejected / it.jobs)
        return errors

    def peak_rss_mb(self) -> float:
        """Server VmHWM after the first (warm-up) pass.

        The server keeps closed sessions listed, so its footprint grows
        with the number of passes, which the timed window does not fix.
        """
        return self.server_rss_mb

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        port, self.port = self.port, 0
        try:
            if not port:
                raise OSError("the server never reported its port")
            shutdown = WireClient("127.0.0.1", port)
            try:
                shutdown.request({"op": "shutdown", "v": PROTOCOL_VERSION}, _no_span)
            finally:
                shutdown.close()
            proc.wait(timeout=30)
        except (OSError, ServiceOpError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait(timeout=30)
        finally:
            proc.stdout.close()


class ShardStore(Workload):
    """``shard_solve`` of ``multi-tenant-mix`` (n = 10,000) into a fresh store."""

    name = "shard-store"
    jobs = 10_000

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.chunks = list(get_scenario("multi-tenant-mix").job_chunks(self.jobs, MACHINES, seed))
        self.runs = 0

    def trace_targets(self, tracer: Tracer) -> list:
        wrap = tracer.wrap
        return [
            (parallel_solve, "normalise_source", lambda fn: wrap("parallel.normalise", fn)),
            (parallel_solve, "source_fingerprint", lambda fn: wrap("parallel.fingerprint", fn)),
            (parallel_solve, "shard_stream", lambda fn: tracer.wrap_generator_fn("parallel.split", fn)),
            (parallel_solve, "restrict_chunk", lambda fn: wrap("parallel.split", fn)),
            (parallel_solve, "run_mapped", lambda fn: tracer.wrap_generator_fn("parallel.pool", fn)),
            (parallel_solve, "merge_decision_streams", lambda fn: wrap("parallel.merge", fn)),
            (ArtifactStore, "save", lambda fn: wrap("campaigns.store_save", fn)),
            (ArtifactStore, "has", lambda fn: wrap("campaigns.store_lookup", fn)),
        ]

    def run_once(self, tracer: "Tracer | None") -> Iteration:
        span = _span_fn(tracer)
        self.runs += 1
        store = self.workdir / f"store-{self.runs}"
        started = time.perf_counter()
        with span("bench.iteration"), span("parallel.shard_solve"):
            result = repro.shard_solve(
                self.chunks,
                ALGORITHM,
                4,
                partition="hash",
                workers=2,
                machines=MACHINES,
                epsilon=EPSILON,
                store=str(store),
            )
        wall = time.perf_counter() - started
        files = [path for path in store.rglob("*") if path.is_file()]
        store_bytes = sum(path.stat().st_size for path in files)
        artifacts = len(ArtifactStore(store))
        shutil.rmtree(store)
        durations = [d for d in result.durations if d is not None]
        row = result.row
        digest = stable_hash(dict(result.payload))
        return Iteration(
            wall=wall,
            jobs=result.num_jobs,
            output=canonical_json({"row": row, "digest": digest}).encode("utf-8"),
            rejected=row["rejected_count"],
            objective=row["objective_value"],
            op_latencies=[wall],
            ops=1,
            counts={
                "parallel.shard_busy_s": sum(durations),
                "parallel.shard_max_s": max(durations, default=0.0),
                "parallel.imbalance": (
                    max(durations) / (sum(durations) / len(durations)) if durations else 0.0
                ),
                "campaigns.store_bytes": store_bytes,
                "campaigns.store_artifacts": artifacts,
            },
            artifact=result,
        )

    def check(self, it: Iteration) -> list[str]:
        result = it.artifact
        errors = _check_budget(result.row["rejected_fraction"])
        if any(result.cached) or result.merged_cached:
            errors.append("fresh store reported cache hits")
        if result.num_jobs != self.jobs:
            errors.append(f"merged {result.num_jobs} jobs, expected {self.jobs}")
        if it.counts["campaigns.store_artifacts"] != result.num_shards + 1:
            errors.append(f"store holds {it.counts['campaigns.store_artifacts']} artifacts")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchBurst, IngestTrace, ServeTcp, ShardStore)
}
