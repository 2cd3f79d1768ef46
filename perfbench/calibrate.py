"""Host-speed calibration: a fixed piece of Python work timed between iterations.

The benchmark runs on a few cores of a shared machine whose speed drifts:
a fixed pure-Python loop reads ±15% within a minute, CPU time included,
so dividing by wall time alone measures the host as much as the program.
The runner therefore times :func:`calibration_slice` — work of the same
kind the program does (interpreter loop, tuple heap, dict updates, float
arithmetic, a walk over a working set larger than the caches, JSON and
SHA-256 in C) that never touches ``repro`` — on every core at once, right
before and after every timed iteration, and divides each iteration's time
by the host's *speed factor* at that moment::

    factor = mean slice time now / REFERENCE_SLICE_S

A factor of 1.2 means the host runs 20% slower than the reference; times
are reported as they would read on the reference host.  A change to the
program moves the iteration time and leaves the slice time alone, so it
shows in full; a host that slows everything down moves both and cancels.

The slices run in helper processes, one per core (up to ``MAX_CORES``), so
the benchmark process's memory, and with it ``peak_rss_mb``, never holds
the working set.  Run as ``python3 calibrate.py --helper``, a helper reads
a number of seconds per line and answers with its speed factor.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import subprocess
import sys
import time

#: Mean time of one :func:`calibration_slice` on the reference host.  A fixed
#: constant: it sets the scale of every reported time, and changing it
#: changes them all at once.  (A 2-vCPU x86-64 VM on a shared machine reads
#: 0.015–0.030 s.)
REFERENCE_SLICE_S = 0.02

#: Calibrate for this share of the previous iteration's time, at least
#: ``MIN_CALIBRATION_S``: enough slices that their mean is steady.
CALIBRATION_SHARE = 0.4
MIN_CALIBRATION_S = 0.15
#: Calibrate at most this many cores at once.
MAX_CORES = 4

_ROW = {"id": 0, "release": 0.0, "weight": 1.0, "sizes": [1.5, 2.5, 4.0, 8.0]}
#: Size of the working set the slice walks (about 15 MB per helper).
_WORKING_SET = 200_000


class _Memory:
    """A shuffled walk over ``_WORKING_SET`` floats and a dict of a quarter of them."""

    def __init__(self) -> None:
        self.order = list(range(_WORKING_SET))
        random.Random(1).shuffle(self.order)
        self.values = [i * 0.5 for i in range(_WORKING_SET)]
        self.table = {i: float(i) for i in range(0, _WORKING_SET, 4)}
        self.position = 0


_memory: "_Memory | None" = None


def calibration_slice(n: int = 10000, walk: int = 8000) -> float:
    """A fixed amount of interpreter work; returns a checksum so none is skipped."""
    global _memory
    if _memory is None:
        _memory = _Memory()
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        key = i % 257
        table[key] = table.get(key, 0) + i
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * 1.0001
    memory = _memory
    start = memory.position
    for j in range(start, start + walk):
        index = memory.order[j % _WORKING_SET]
        acc += memory.values[index]
        acc += memory.table.get(index, 0.0)
    memory.position = (start + walk) % _WORKING_SET
    for i in range(n // 40):
        row = dict(_ROW, id=i)
        text = json.dumps(row, sort_keys=True)
        acc += json.loads(text)["sizes"][i % 4]
        acc += hashlib.sha256(text.encode("utf-8")).digest()[0]
    return acc + len(table)


def speed_factor(seconds: float) -> float:
    """Run slices for about ``seconds`` (at least three); mean slice time ÷ reference."""
    slices = 0
    started = time.perf_counter()
    while True:
        calibration_slice()
        slices += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and slices >= 3:
            return elapsed / slices / REFERENCE_SLICE_S


class HostSpeed:
    """Speed factors taken between iterations; each iteration gets the mean
    of the factor just before it and the one just after it.

    A process that waits on another one (the server, the pool workers) runs
    at the speed of more than one core, and the cores of a shared host drift
    apart, so every core is calibrated at once and the factor is their mean.
    Use as a context manager: leaving it stops the helpers.
    """

    def __init__(self) -> None:
        cores = min(len(os.sched_getaffinity(0)), MAX_CORES)
        self.helpers = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--helper"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(cores)
        ]
        self.factors: list[float] = []
        try:
            self.last = self._measure(MIN_CALIBRATION_S)
        except BaseException:
            self.__exit__()
            raise

    def _measure(self, seconds: float) -> float:
        for helper in self.helpers:
            helper.stdin.write(f"{seconds!r}\n")
            helper.stdin.flush()
        return sum(float(helper.stdout.readline()) for helper in self.helpers) / len(self.helpers)

    def around(self, wall: float) -> float:
        """Calibrate after an iteration of ``wall`` seconds; its factor."""
        after = self._measure(max(MIN_CALIBRATION_S, CALIBRATION_SHARE * wall))
        factor = (self.last + after) / 2.0
        self.last = after
        self.factors.append(factor)
        return factor

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


def _helper() -> None:
    """Answer each line of standard input (seconds) with a speed factor."""
    calibration_slice()
    for line in sys.stdin:
        print(repr(speed_factor(float(line))), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--helper"]:
    _helper()
