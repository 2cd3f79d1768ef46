"""Same-runner A/B gate over the repository benchmark (``perfbench/``).

Usage, from a checkout of the head commit::

    python -m benchmarks.ab BASE_DIR HEAD_DIR

Both arguments are checkout roots (for example a ``git worktree`` of the base
commit and ``.``).  Each tree runs
``perfbench/run.py --workload all --seed <pair> --seconds 3 --trace 0`` with
its own ``src/``, in interleaved pairs: both sides of a pair use the same
seed, and which side runs first alternates from pair to pair, so a host that
drifts during the job slows both sides alike.

For every workload and ``end_to_end`` metric of the base tree's
``BENCHMARK.json`` the gate compares the median over the pairs and fails
(exit 1) when:

* a head median is worse than the base median by more than the metric's bound;
* any run exits non-zero or reports ``"correct": false``;
* head's share of failed operations exceeds base's.

The result is printed as a markdown table on standard output (CI appends it
to the job summary); progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# About 90 s per pair was measured on a 2-core x86-64 host (four workloads,
# each with three set-ups, a warm-up and at least three timed iterations), so
# five pairs take under eight minutes.  perfbench's host calibration keeps the
# run-to-run spread (IQR / median) of its timings near 0.05, against bounds of
# 0.25; an A/A run of one commit against itself differed by at most 8.4%.
PAIRS = 5
SECONDS = 3


def load_spec(tree: Path) -> dict:
    """The ``BENCHMARK.json`` of a checkout."""
    return json.loads((Path(tree) / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_perfbench(tree: Path, seed: int) -> dict:
    """One end-to-end perfbench run in ``tree``; its final JSON line plus the exit code."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        "all",
        "--seed",
        str(seed),
        "--seconds",
        str(SECONDS),
        "--trace",
        "0",
    ]
    proc = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if not isinstance(result, dict):
        result = {}
    return {
        "returncode": proc.returncode,
        "correct": result.get("correct") is True,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {name: entry["value"] for name, entry in result.get("metrics", {}).items()},
    }


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base`` as a share of ``base`` (< 0: better)."""
    change = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if change == 0 else (float("inf") if change > 0 else float("-inf"))
    return change / abs(base)


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def compare(spec: dict, base_runs: list[dict], head_runs: list[dict]) -> tuple[list, list]:
    """Decide the gate from the runs of both sides.

    Returns ``(rows, failures)``: one table row per workload and
    ``end_to_end`` metric, and a list of reasons the gate fails (empty when
    it passes).
    """
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for pair, run in enumerate(runs, start=1):
            if run["returncode"] != 0 or not run["correct"]:
                failures.append(
                    f"{side} run {pair}: exit code {run['returncode']}, "
                    f"correct {run['correct']}"
                )
    base_failed, head_failed = _failed_share(base_runs), _failed_share(head_runs)
    if head_failed > base_failed:
        failures.append(f"failed operations: head {head_failed:.4f} > base {base_failed:.4f}")

    rows = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}.{metric['name']}"
            base_values = [run["metrics"][key] for run in base_runs if key in run["metrics"]]
            head_values = [run["metrics"][key] for run in head_runs if key in run["metrics"]]
            if len(base_values) < len(base_runs) or len(head_values) < len(head_runs):
                failures.append(f"{key}: missing from some runs")
                continue
            base = statistics.median(base_values)
            head = statistics.median(head_values)
            worse = worsening(base, head, metric["better"])
            ok = worse <= metric["bound"]
            if not ok:
                failures.append(
                    f"{key}: head {head:.6g} is {worse:+.1%} worse than base {base:.6g} "
                    f"(bound {metric['bound']:.0%})"
                )
            rows.append((workload["name"], metric, base, head, worse, ok))
    return rows, failures


def render(rows: list, failures: list, base_runs: list[dict], head_runs: list[dict]) -> str:
    """The markdown report: verdict, per-metric table, reasons for failure."""
    verdict = "FAIL" if failures else "pass"
    counts = {
        side: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
        for side, runs in (("base", base_runs), ("head", head_runs))
    }
    summary = (
        f"Medians of {len(base_runs)} interleaved pairs (`--seconds {SECONDS} --trace 0`). "
        f"Failed operations: base {counts['base']}, head {counts['head']}."
    )
    lines = [
        f"## perfbench A/B: {verdict}",
        "",
        summary,
        "",
        "| workload | metric | better | bound | base | head | worse by | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, metric, base, head, worse, ok in rows:
        lines.append(
            f"| {workload} | {metric['name']} ({metric['unit']}) | {metric['better']} "
            f"| {metric['bound']:.0%} | {base:.6g} | {head:.6g} | {worse:+.1%} "
            f"| {'ok' if ok else '**worse**'} |"
        )
    if failures:
        lines += ["", "Failures:", ""] + [f"- {reason}" for reason in failures]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ab", description=__doc__.splitlines()[0]
    )
    parser.add_argument("base", type=Path, help="checkout root of the base commit")
    parser.add_argument("head", type=Path, help="checkout root of the head commit")
    args = parser.parse_args(argv)
    spec = load_spec(args.base)

    base_runs, head_runs = [], []
    for pair in range(PAIRS):
        seed = pair + 1
        sides = [("base", args.base, base_runs), ("head", args.head, head_runs)]
        for side, tree, runs in sides if pair % 2 == 0 else sides[::-1]:
            print(f"pair {seed}/{PAIRS}: {side} ({tree})", file=sys.stderr, flush=True)
            runs.append(run_perfbench(tree, seed))

    rows, failures = compare(spec, base_runs, head_runs)
    print(render(rows, failures, base_runs, head_runs))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
