"""Benchmark of the four user paths of ``repro``, end to end and by layer.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload batch-burst --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` times iterations with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics from the traced ones.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
each workload in its own process, one after another.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("batch-burst", "ingest-trace", "serve-tcp", "shard-store")


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 and not result:
            return proc.returncode
        merged["correct"] = merged["correct"] and bool(result.get("correct"))
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed iteration time per run (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    from harness import run_workload

    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
