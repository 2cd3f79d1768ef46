"""Measuring one workload: set-up, warm-up, timed or traced iterations, checks.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.service.client import percentile

from calibrate import HostSpeed
from tracing import Tracer, patched, self_times
from workloads import BUDGET, WORKLOADS

MIN_ITERATIONS = 3
#: Stop adding iterations after this much time in one run, however few.
RUN_BUDGET_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "rejected_frac": "ratio",
    "objective": "flow-time",
}

#: Per-layer metrics: name -> unit.  Self times come from span names
#: (``<span>_s``); counters come from the iterations.  A layer a workload
#: does not exercise reports 0.
PER_LAYER_UNITS = {
    "simulation.engine_run_s": "s",
    "simulation.events": "count",
    "simulation.validate_s": "s",
    "solvers.solve_s": "s",
    "solvers.outcome_s": "s",
    "core.rejected_jobs": "count",
    "core.budget_used": "ratio",
    "workloads.parse_s": "s",
    "service.open_session_s": "s",
    "service.submit_many_s": "s",
    "service.poll_s": "s",
    "service.finalize_s": "s",
    "service.chunks": "count",
    "service.events": "count",
    "service.backlog_max": "count",
    "service.server_cpu_s": "s",
    "service.client_s": "s",
    "service.wait_s": "s",
    "service.round_trips": "count",
    "service.throttled": "count",
    "service.errors": "count",
    "service.bytes_out_per_job": "B/job",
    "service.bytes_in_per_job": "B/job",
    "service.decision_lines": "count",
    "parallel.shard_solve_s": "s",
    "parallel.normalise_s": "s",
    "parallel.fingerprint_s": "s",
    "parallel.split_s": "s",
    "parallel.shard_busy_s": "s",
    "parallel.shard_max_s": "s",
    "parallel.imbalance": "ratio",
    "parallel.pool_s": "s",
    "parallel.pool_overhead_s": "s",
    "parallel.merge_s": "s",
    "campaigns.store_save_s": "s",
    "campaigns.store_lookup_s": "s",
    "campaigns.store_bytes": "B",
    "campaigns.store_artifacts": "count",
    "tracing.overhead_frac": "ratio",
    "tracing.coverage": "ratio",
    "op_tail_ms": "ms",
    "op_tail_pct": "%",
    "op_tail_samples": "count",
    "failed_frac": "ratio",
    "host.speed_factor": "ratio",
}

#: Span names whose self time forms a ``_s`` metric under another name.
SPAN_METRICS = {
    "service.encode": "service.client_s",
    "service.decode": "service.client_s",
    "service.io": "service.wait_s",
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def op_tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (else the median)."""
    count = len(latencies)
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= 10:
            return q, percentile(latencies, q)
    return 50.0, percentile(latencies, 50.0)


class Run:
    """One benchmark process: set-up, warm-up, timed iterations, checks."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: "bytes | None" = None
        self.started = time.perf_counter()

    def setup(self, repeats: int, speed: HostSpeed) -> list[float]:
        """Set up ``repeats`` times; each set-up time scaled to the reference host."""
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            self.workload.setup(self.seed, self.workdir)
            wall = time.perf_counter() - started
            times.append(wall / speed.around(wall))
        return times

    def iterate(self, tracer=None):
        """One iteration, checked against the first one's output."""
        it = self.workload.run_once(tracer)
        errors = self.workload.check(it)
        if self.reference is None:
            self.reference = it.output
        elif it.output != self.reference:
            errors.append("output differs from the first iteration's")
        it.artifact = None
        print(f"{self.workload.name} iteration wall {it.wall:.4f} s"
              f"{' (traced)' if tracer else ''}", file=sys.stderr)
        self.attempted += it.ops
        self.failed += it.failed_ops + len(errors)
        self.errors += errors
        return it

    def more(self, measured: float, done: int) -> bool:
        if time.perf_counter() - self.started > RUN_BUDGET_S:
            return False
        return measured < self.seconds or done < MIN_ITERATIONS


def end_to_end(run: Run, speed: HostSpeed) -> dict[str, float]:
    """End-to-end metrics; times are scaled to the reference host (calibrate.py)."""
    setup = run.setup(run.workload.setup_repeats, speed)
    first = run.iterate()
    speed.around(first.wall)
    timed = []
    measured = scaled = 0.0
    while run.more(measured, len(timed)):
        it = run.iterate()
        factor = speed.around(it.wall)
        print(f"{run.workload.name} host speed factor {factor:.4f}", file=sys.stderr)
        timed.append((it, factor))
        measured += it.wall
        scaled += it.wall / factor
    jobs = sum(it.jobs for it, _ in timed)
    latencies = [x / factor for it, factor in timed for x in it.op_latencies]
    print(f"{run.workload.name} unscaled jobs_per_s {jobs / measured!r} jobs/s; "
          f"host speed factor {statistics.median(speed.factors)!r}")
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": jobs / scaled,
        "op_p50_ms": percentile(latencies, 50.0) * 1e3,
        "peak_rss_mb": run.workload.peak_rss_mb(),
        "rejected_frac": first.rejected / first.jobs,
        "objective": first.objective,
    }


def per_layer(run: Run, trace_path: Path, speed: HostSpeed) -> dict[str, float]:
    run.setup(1, speed)
    first = run.iterate()
    tracer = Tracer()
    plain, traced, layer_rows = [], [], []
    measured = 0.0
    while run.more(measured, len(traced)):
        it = run.iterate()
        plain.append(it)
        tracer.run_id = f"{run.workload.name}-seed{run.seed}-{len(traced)}"
        with patched(run.workload.trace_targets(tracer)):
            traced_it = run.iterate(tracer)
        traced.append(traced_it)
        measured += it.wall + traced_it.wall
        speed.around(it.wall + traced_it.wall)
        layer_rows.append(_layer_row(run.workload, traced_it, tracer.run_spans(tracer.run_id)))
    tracer.dump(trace_path)

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        values = [row[name] for row in layer_rows if name in row]
        if values:
            metrics[name] = statistics.median(values)
    plain_wall = statistics.median(it.wall for it in plain)
    traced_wall = statistics.median(it.wall for it in traced)
    metrics["tracing.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    pct, tail = op_tail([x for it in plain for x in it.op_latencies])
    metrics["op_tail_ms"] = tail * 1e3
    metrics["op_tail_pct"] = pct
    metrics["op_tail_samples"] = sum(len(it.op_latencies) for it in plain)
    metrics["core.rejected_jobs"] = first.rejected
    metrics["core.budget_used"] = first.rejected / first.jobs / BUDGET
    metrics["failed_frac"] = run.failed / max(run.attempted, 1)
    metrics["host.speed_factor"] = statistics.median(speed.factors)
    return metrics


def _layer_row(workload, it, spans) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    row = dict(it.counts)
    selfs = self_times(spans)
    for name, value in selfs.items():
        metric = SPAN_METRICS.get(name, f"{name}_s")
        row[metric] = row.get(metric, 0.0) + value
    root = [end - start for _, _, _, name, start, end in spans if name == workload.coverage_root]
    if root:
        row["tracing.coverage"] = 1.0 - selfs[workload.coverage_root] / sum(root)
    pool = [(start, end) for _, _, _, name, start, end in spans if name == "parallel.pool"]
    if pool:
        map_wall = max(end for _, end in pool) - min(start for start, _ in pool)
        row["parallel.pool_overhead_s"] = map_wall - row["parallel.shard_max_s"]
    return row


def run_workload(args) -> int:
    """Run one workload in this process; print its metrics and result line."""
    workload = WORKLOADS[args.workload]()
    root = Path.cwd() / ".perfbench"
    root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root))
    run = Run(workload, args.seed, args.seconds, workdir)
    try:
        with HostSpeed() as speed:
            if args.trace:
                trace_path = root / "spans" / f"{args.workload}-seed{args.seed}.json"
                metrics, units = per_layer(run, trace_path, speed), PER_LAYER_UNITS
            else:
                metrics, units = end_to_end(run, speed), END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for error in run.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
