"""The experiment suite (E1-E14).

The paper proves guarantees instead of reporting measurements, so these
experiments are the reproduction's counterpart of a systems paper's tables
and figures: each of E1-E9 empirically verifies one theorem or lemma (see
DESIGN.md section 3 for the index), E10 sweeps algorithms through the
unified solver registry, E12 maps the scalability frontier and E14 sweeps
every streaming solver across the heavy-traffic scenario catalog.  Every
experiment module exposes

* a ``*Config`` dataclass with the sweep parameters, and
* ``run(config) -> ExperimentResult``,

and the registry in :mod:`repro.experiments.registry` lets callers run them
by id (``run_experiment("E1")``), which is what the CLI, the campaign
runner and the examples do.
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentRunUnit,
    ExperimentSpec,
    available_experiments,
    get_spec,
    make_config,
    run_config,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentRunUnit",
    "ExperimentSpec",
    "available_experiments",
    "get_spec",
    "make_config",
    "run_config",
    "run_experiment",
]
