"""A finished run is freed by reference counting: it leaves no cyclic garbage.

A solve holds the whole run — jobs, records, priority-rank dicts, SoA
columns — so any reference cycle through the engine state, the stepper or a
session keeps megabytes alive until the next full collection.  Both ways a
run is driven are checked: batch ``repro.solve`` and a finalized streaming
session, in every dispatch mode, for every streaming engine solver: the
paper's Theorem-1 policy (the one that materialises the Fenwick prefix
stats), the baselines, the adaptive meta-scheduler and both speed-scaling
policies.
"""

from __future__ import annotations

import gc

import pytest

import repro
from repro.service import open_session
from repro.simulation.engine import DISPATCH_MODES
from repro.workloads.adversarial import overload_burst_instance

# Deep queues materialise the lazily-built prefix stats, whose factory used
# to close over the stepper and the state.
_BURST = overload_burst_instance(num_machines=3, burst_jobs=40, trailing_shorts=60)

_CASES = [
    ("rejection-flow", _BURST, {"epsilon": 0.4}),
    ("greedy", _BURST, {}),
    ("fcfs", _BURST, {}),
    ("immediate-rejection", _BURST, {"epsilon": 0.25}),
    ("meta", _BURST, {}),
    ("rejection-energy-flow", _BURST.with_alpha(2.5), {"epsilon": 0.5}),
    ("energy-flow-no-rejection", _BURST.with_alpha(2.5), {"epsilon": 0.5}),
]


def _cyclic_garbage(run) -> int:
    """Objects only a cycle-collecting pass frees after ``run()`` drops its result."""
    run()  # warm-up: first-call imports and caches are not per-run garbage
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        run()
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
@pytest.mark.parametrize("algorithm, instance, params", _CASES, ids=[c[0] for c in _CASES])
class TestCycleFreeTeardown:
    def test_batch_solve(self, dispatch, algorithm, instance, params):
        def run():
            outcome = repro.solve(instance, algorithm, dispatch=dispatch, **params)
            assert outcome.result.records

        assert _cyclic_garbage(run) == 0

    def test_finalized_session(self, dispatch, algorithm, instance, params):
        def run():
            session = open_session(algorithm, instance.machines, dispatch=dispatch, **params)
            half = len(instance.jobs) // 2
            session.submit_many(instance.jobs[:half])
            session.poll()
            session.submit_many(instance.jobs[half:])
            assert session.finalize().result.records

        assert _cyclic_garbage(run) == 0
