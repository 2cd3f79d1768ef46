"""Tests for the experiment suite: miniature smoke runs plus the E1-E9 paper claims."""

import pytest

from repro.analysis.reporting import ExperimentTable
from repro.baselines.greedy import GreedyDispatchScheduler
from repro.core.dual import FlowTimeDualAccountant
from repro.core.energy_min import ConfigLPEnergyScheduler
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.exceptions import InvalidParameterError
from repro.experiments import EXPERIMENTS, available_experiments, run_experiment
from repro.simulation.engine import FlowTimeEngine
from repro.simulation.speed_engine import SpeedScalingEngine
from repro.workloads.generators import (
    DeadlineInstanceGenerator,
    InstanceGenerator,
    WeightedInstanceGenerator,
)


class TestRegistry:
    def test_all_experiments_listed(self):
        assert set(available_experiments()) == {
            *(f"E{i}" for i in range(1, 11)),
            "E12",
            "E14",
            "E15",
            "E16",
            "E17",
        }

    def test_descriptions_non_empty(self):
        assert all(description for description in available_experiments().values())

    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("E42")

    def test_case_insensitive(self):
        result = run_experiment("e5", alphas=(2.0,))
        assert result.experiment_id == "E5"


class TestExperimentRuns:
    """Each experiment runs end to end with a tiny configuration and produces rows."""

    def _check(self, result, expect_rows=True):
        assert result.tables
        assert all(isinstance(table, ExperimentTable) for table in result.tables)
        if expect_rows:
            assert all(table.rows for table in result.tables)
        rendered = result.render()
        assert result.experiment_id in rendered

    def test_e1_flow_time(self):
        result = run_experiment(
            "E1", epsilons=(0.5,), workloads=("poisson-pareto",), include_baselines=True
        )
        self._check(result)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_fraction"] <= row["budget_2eps"] + 1e-9

    def test_e2_immediate_rejection(self):
        result = run_experiment("E2", lengths=(4.0, 8.0), epsilon=0.25)
        self._check(result)
        rows = result.raw["rows"]
        ours = [r for r in rows if "rejection-flow-time" in r["algorithm"]]
        immediate = [r for r in rows if "immediate" in r["algorithm"]]
        # The immediate-rejection policies degrade as L grows; ours stays flat-ish.
        assert max(r["ratio_vs_lb"] for r in immediate) > max(r["ratio_vs_lb"] for r in ours)

    def test_e3_energy_flow(self):
        result = run_experiment("E3", alphas=(2.0,), epsilons=(0.5,), num_jobs=40)
        self._check(result)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_weight_fraction"] <= row["budget_eps"] + 1e-9

    def test_e4_energy_min(self):
        result = run_experiment("E4", alphas=(2.0,), slacks=(3.0,), num_jobs=8)
        self._check(result)
        greedy_rows = [r for r in result.raw["rows"] if r["algorithm"] == "config-lp-greedy"]
        assert all(r["ratio_vs_lb"] >= 1.0 - 1e-9 for r in greedy_rows)

    def test_e5_lemma2(self):
        result = run_experiment("E5", alphas=(2.0, 3.0))
        self._check(result)
        rows = result.raw["rows"]
        assert rows[0]["forced_ratio"] <= rows[0]["theorem3_bound"] + 1e-6
        assert rows[-1]["forced_ratio"] > rows[0]["forced_ratio"]

    def test_e6_speed_vs_rejection(self):
        result = run_experiment("E6", epsilons=(0.5,), workloads=("poisson-pareto",))
        self._check(result)
        assert {row["model"] for row in result.raw["rows"]} == {
            "rejection-only (Thm 1)",
            "speed+rejection (ESA'16)",
        }

    def test_e7_dual_fitting(self):
        result = run_experiment("E7", epsilons=(0.5,), num_jobs=25, samples_per_job=6)
        self._check(result)
        assert all(row["violations"] == 0 for row in result.raw["flow"])
        assert all(row["violations"] == 0 for row in result.raw["energy"])

    def test_e8_scalability(self):
        result = run_experiment("E8", job_counts=(100,), machine_counts=(2,))
        self._check(result)
        assert all(row["events_per_s"] > 0 for row in result.raw["rows"])

    def test_e9_ablation(self):
        result = run_experiment("E9", workloads=("lemma1-L16",), epsilon=0.25)
        self._check(result)
        rows = {row["rules"]: row for row in result.raw["rows"]}
        assert rows["no rejection"]["flow_time"] >= rows["both rules"]["flow_time"]

    def test_e14_robustness(self):
        result = run_experiment(
            "E14",
            scenarios=("flash-crowd", "heavy-tail-pareto"),
            algorithms=("rejection-flow", "greedy"),
            num_jobs=30,
        )
        self._check(result)
        rows = result.tables[0].rows
        assert len(rows) == 4
        assert {row["scenario"] for row in rows} == {"flash-crowd", "heavy-tail-pareto"}
        # Within each (scenario, objective) group the best solver has ratio 1.0
        # and every ratio is at least 1.
        assert all(row["ratio_vs_best"] >= 1.0 for row in rows)
        for scenario in ("flash-crowd", "heavy-tail-pareto"):
            assert min(
                row["ratio_vs_best"] for row in rows if row["scenario"] == scenario
            ) == 1.0
        # Throughput measurement is off by default: no wall-clock anywhere.
        assert all(row["events_per_s"] == "" for row in rows)
        assert all("elapsed_s" not in row for row in result.raw["rows"])

    def test_e10_solver_compare(self):
        result = run_experiment(
            "E10", algorithms=("rejection-flow", "greedy", "srpt-pooled"), num_jobs=30
        )
        self._check(result)
        rows = result.tables[0].rows
        assert [row["algorithm"] for row in rows] == ["rejection-flow", "greedy", "srpt-pooled"]
        assert all(row["objective_value"] > 0 for row in rows)


# --------------------------------------------------------------------------------------
# Paper claims: the E1-E9 sweeps at their documented configurations
# --------------------------------------------------------------------------------------


E1_KWARGS = dict(epsilons=(0.1, 0.25, 0.5), workloads=("poisson-pareto", "overload-burst"))
E2_KWARGS = dict(lengths=(4.0, 8.0, 16.0, 24.0), epsilon=0.25)
E3_KWARGS = dict(alphas=(2.0, 2.5, 3.0), epsilons=(0.25, 0.5), num_jobs=150)
E4_KWARGS = dict(
    alphas=(1.5, 2.0, 3.0),
    slacks=(2.0, 4.0),
    num_jobs=25,
    include_brute_force=True,
    brute_force_jobs=5,
)
E5_KWARGS = dict(alphas=(2.0, 3.0, 4.0, 5.0))
E6_KWARGS = dict(epsilons=(0.25, 0.5), workloads=("poisson-pareto", "bursty-bimodal"))
E7_KWARGS = dict(epsilons=(0.25, 0.5), num_jobs=60, samples_per_job=15)
E8_KWARGS = dict(job_counts=(500, 2000), machine_counts=(4, 16), repeats=1)
E9_KWARGS = dict(
    workloads=("poisson-pareto", "overload-burst", "lemma1-L16"), epsilon=0.25
)


class TestPaperClaims:
    """Each sweep asserts the theorem or lemma its experiment reproduces."""

    def test_e1_experiment(self):
        """Theorem 1: rejected fraction within 2ε, ratio within 2((1+ε)/ε)²."""
        result = run_experiment("E1", **E1_KWARGS)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_fraction"] <= row["budget_2eps"] + 1e-9
                assert row["ratio_vs_lb"] <= row["paper_bound"] + 1e-9

    @pytest.mark.parametrize("epsilon", [0.25, 0.5])
    def test_e1_scheduler_run(self, epsilon):
        """A Theorem 1 run on a 2000-job workload decides every job."""
        instance = InstanceGenerator(
            num_machines=8, seed=1, size_distribution="pareto"
        ).generate(2000)
        result = FlowTimeEngine(instance).run(RejectionFlowTimeScheduler(epsilon=epsilon))
        assert len(result.records) == 2000

    def test_e2_experiment(self):
        """Lemma 1: immediate rejection degrades with Δ, Theorem 1 does not."""
        result = run_experiment("E2", **E2_KWARGS)
        rows = result.raw["rows"]
        ours = {r["L"]: r["ratio_vs_lb"] for r in rows if "rejection-flow-time" in r["algorithm"]}
        immediate = {}
        for row in rows:
            if "immediate" in row["algorithm"]:
                immediate[row["L"]] = max(immediate.get(row["L"], 0.0), row["ratio_vs_lb"])

        lengths = sorted(ours)
        # Immediate rejection degrades as Delta = L^2 grows ...
        assert immediate[lengths[-1]] > 2.0 * immediate[lengths[0]]
        # ... while the Theorem 1 algorithm stays within its guarantee everywhere.
        for length in lengths:
            assert ours[length] <= rows[0]["theorem1_bound"] + 1e-9

    def test_e3_experiment(self):
        """Theorem 2: the rejected weight stays within the ε budget on every row."""
        result = run_experiment("E3", **E3_KWARGS)
        for row in result.raw["rows"]:
            if row["epsilon"] != "-":
                assert row["rejected_weight_fraction"] <= row["budget_eps"] + 1e-9

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_e3_scheduler_run(self, alpha):
        """A Theorem 2 run on an 800-job speed-scaling workload decides every job."""
        instance = WeightedInstanceGenerator(num_machines=4, alpha=alpha, seed=3).generate(800)
        result = SpeedScalingEngine(instance).run(RejectionEnergyFlowScheduler(epsilon=0.3))
        assert len(result.records) == 800

    def test_e4_experiment(self):
        """Theorem 3: on tiny prefixes the greedy is within α^α of the optimum."""
        result = run_experiment("E4", **E4_KWARGS)
        for row in result.raw.get("brute_force", []):
            # Theorem 3 against the *discretised optimum*, with generous slack for
            # the alpha^alpha bound (the greedy is usually near-optimal).
            assert row["ratio_vs_opt"] >= 1.0 - 1e-9
            assert row["ratio_vs_opt"] <= row["alpha"] ** row["alpha"] + 1e-6

    @pytest.mark.parametrize("slack", [2.0, 6.0])
    def test_e4_greedy_run(self, slack):
        """The configuration-LP greedy schedules every job of a 60-job deadline instance."""
        instance = DeadlineInstanceGenerator(
            num_machines=3, slack=slack, alpha=2.0, seed=4
        ).generate(60)
        schedule = ConfigLPEnergyScheduler().schedule(instance)
        assert len(schedule.strategies) == 60

    def test_e5_experiment(self):
        """Lemma 2: the forced ratio grows with α and stays under Theorem 3's bound."""
        result = run_experiment("E5", **E5_KWARGS)
        rows = result.raw["rows"]
        ratios = [row["forced_ratio"] for row in rows]
        assert ratios == sorted(ratios)  # monotone in alpha
        for row in rows:
            assert row["forced_ratio"] <= row["theorem3_bound"] + 1e-6

    def test_e6_experiment(self):
        """Rejection alone stays within a small factor of speed plus rejection."""
        result = run_experiment("E6", **E6_KWARGS)
        rows = result.raw["rows"]
        assert any(row["model"].startswith("rejection-only") for row in rows)
        assert any(row["model"].startswith("speed+rejection") for row in rows)
        # The qualitative claim of the paper: on the same workloads, rejection-only
        # on unit-speed machines stays within a small factor of the augmented runs.
        for workload in {row["workload"] for row in rows}:
            for epsilon in {row["epsilon"] for row in rows}:
                pair = {
                    row["model"]: row["ratio_vs_lb"]
                    for row in rows
                    if row["workload"] == workload and row["epsilon"] == epsilon
                }
                assert pair["rejection-only (Thm 1)"] <= 5.0 * pair["speed+rejection (ESA'16)"]

    def test_e7_experiment(self):
        """Lemmas 4-6: every sampled dual constraint holds."""
        result = run_experiment("E7", **E7_KWARGS)
        assert all(row["violations"] == 0 for row in result.raw["flow"])
        assert all(row["violations"] == 0 for row in result.raw["energy"])
        assert all(row["monotonicity_violations"] == 0 for row in result.raw["energy"])

    def test_e7_dual_reconstruction(self):
        """The Section 2 dual certificate of a 150-job run is feasible."""
        instance = InstanceGenerator(num_machines=3, seed=5).generate(150)
        scheduler = RejectionFlowTimeScheduler(epsilon=0.4)
        result = FlowTimeEngine(instance).run(scheduler)
        check = FlowTimeDualAccountant(result, scheduler).check_feasibility(samples_per_job=8)
        assert check.feasible

    def test_e8_experiment(self):
        result = run_experiment("E8", **E8_KWARGS)
        assert all(row["events_per_s"] > 0 for row in result.raw["rows"])

    @pytest.mark.parametrize("num_jobs", [1000, 5000])
    @pytest.mark.parametrize("scheduler_factory", [
        lambda: RejectionFlowTimeScheduler(epsilon=0.5),
        lambda: GreedyDispatchScheduler(),
    ], ids=["theorem1", "greedy"])
    def test_e8_engine_run(self, num_jobs, scheduler_factory):
        """The engine decides every job at 1k and 5k jobs on 8 machines."""
        instance = InstanceGenerator(
            num_machines=8, seed=6, size_distribution="exponential"
        ).generate(num_jobs)
        result = FlowTimeEngine(instance).run(scheduler_factory())
        assert len(result.records) == num_jobs

    def test_e9_experiment(self):
        """Both rejection rules together never lose to no rejection."""
        result = run_experiment("E9", **E9_KWARGS)
        by_workload: dict[str, dict[str, float]] = {}
        for row in result.raw["rows"]:
            by_workload.setdefault(row["workload"], {})[row["rules"]] = row["flow_time"]
        for variants in by_workload.values():
            # Using both rules never loses to using no rejection at all on these
            # workloads (that gap is the point of the paper).
            assert variants["both rules"] <= variants["no rejection"] + 1e-9


class TestFrontier1MPreset:
    def test_preset_pins_the_frontier_point(self):
        from repro.experiments.exp_scalability_frontier import (
            FRONTIER_1M_PEAK_RSS_BUDGET_MB,
            frontier_1m_config,
        )

        config = frontier_1m_config()
        assert config.job_counts == (1_000_000,)
        assert config.algorithms == ("rejection-flow",)
        assert config.dispatch == "vectorized"
        assert FRONTIER_1M_PEAK_RSS_BUDGET_MB >= 2048

    def test_preset_runs_at_reduced_scale_within_budget(self):
        # The full n=1M point is a nightly-scale run; here the same config
        # shape at n=2k proves the wiring (vectorized dispatch reaches the
        # engine) and that peak RSS is tracked.
        from dataclasses import replace

        from repro.experiments.exp_scalability_frontier import (
            FRONTIER_1M_PEAK_RSS_BUDGET_MB,
            frontier_1m_config,
            run,
        )

        config = replace(frontier_1m_config(), job_counts=(2_000,))
        result = run(config)
        (row,) = result.raw["rows"]
        assert row["algorithm"] == "rejection-flow"
        assert row["events"] > 0
        assert 0 < row["peak_rss_mb"] < FRONTIER_1M_PEAK_RSS_BUDGET_MB
