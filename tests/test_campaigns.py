"""Tests for the campaign runner, artifact store and aggregation layer."""

import pickle

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignRunner,
    CampaignTask,
    aggregate_tables,
    available_grids,
    export_csv,
    get_grid,
    render_campaign_report,
    result_from_payload,
    run_task,
    summary_table,
    task_from_payload,
)
from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.experiments import ExperimentRunUnit, make_config
from repro.utils.rng import seeds_for
from repro.utils.serialization import canonical_json, stable_hash

TINY_E1 = {"epsilons": (0.5,), "workloads": ("poisson-pareto",)}


def _tiny_task(seed=7, variant="tiny"):
    return CampaignTask.create("E1", variant=variant, seed=seed, overrides=TINY_E1)


class TestSerialization:
    def test_canonical_json_sorts_keys_and_is_stable(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == '{"a":[1,2],"b":1}'
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuples_and_lists_hash_identically(self):
        assert stable_hash({"eps": (0.5, 1.0)}) == stable_hash({"eps": [0.5, 1.0]})

    def test_unserialisable_value_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"f": lambda: None})


class TestRegistryRunUnits:
    def test_make_config_coerces_lists_to_tuples(self):
        config = make_config("E1", epsilons=[0.25, 0.5])
        assert config.epsilons == (0.25, 0.5)

    def test_make_config_rejects_unknown_fields(self):
        with pytest.raises(InvalidParameterError):
            make_config("E1", not_a_field=1)

    def test_run_unit_normalises_list_overrides(self):
        from_lists = ExperimentRunUnit.create("E1", {"epsilons": [0.25, 0.5]})
        from_tuples = ExperimentRunUnit.create("E1", {"epsilons": (0.25, 0.5)})
        assert from_lists == from_tuples
        assert len({from_lists, from_tuples}) == 1

    def test_run_unit_round_trips_through_pickle(self):
        unit = ExperimentRunUnit.create("e1", {"epsilons": (0.5,), "seed": 3})
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
        assert clone.experiment_id == "E1"
        assert clone.overrides_dict == {"epsilons": (0.5,), "seed": 3}

    def test_run_unit_runs(self):
        unit = ExperimentRunUnit.create("E1", {**TINY_E1, "seed": 7})
        result = unit.run()
        assert result.experiment_id == "E1"
        assert result.tables and result.tables[0].rows


class TestTasksAndKeys:
    def test_key_depends_on_config_not_variant_name(self):
        base = _tiny_task(seed=7)
        assert base.key() == _tiny_task(seed=7, variant="renamed").key()
        assert base.key() != _tiny_task(seed=8).key()

    def test_key_survives_payload_round_trip(self):
        task = _tiny_task()
        payload = run_task(task)
        assert task_from_payload(payload).key() == task.key()

    def test_rebuilt_task_is_equal_and_hashable(self):
        # JSON turns tuple overrides into lists; create() must normalise them
        # back so rebuilt tasks dedupe against the grid's originals.
        task = _tiny_task()
        rebuilt = task_from_payload(run_task(task))
        assert rebuilt == task
        assert len({task, rebuilt}) == 1

    def test_payload_rebuilds_equal_tables(self):
        task = _tiny_task()
        payload = run_task(task)
        rebuilt = result_from_payload(payload)
        direct = task.to_unit().run()
        assert rebuilt.render() == direct.render()


def _store_for(kind: str, tmp_path) -> ArtifactStore:
    """Open a store on either real backend (see tests/test_store_backends.py
    for the full backend contract suite)."""
    if kind == "sqlite":
        return ArtifactStore.open(f"sqlite:{tmp_path / 'store.db'}")
    return ArtifactStore(tmp_path / "store")


class TestArtifactStore:
    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_round_trip_and_len(self, kind, tmp_path):
        store = _store_for(kind, tmp_path)
        store.save("ab12cd34", {"x": 1})
        assert store.has("ab12cd34")
        assert store.load("ab12cd34") == {"x": 1}
        assert len(store) == 1 and list(store.keys()) == ["ab12cd34"]

    def test_missing_key_and_malformed_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has("ab12cd34")
        with pytest.raises(InvalidParameterError):
            store.load("ab12cd34")
        with pytest.raises(InvalidParameterError):
            store.path_for("../../evil")

    def test_identical_payloads_write_identical_bytes(self, tmp_path):
        first, second = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
        payload = {"z": [1.5, float("inf")], "a": {"nested": (1, 2)}}
        first.save("ab12cd34", payload)
        second.save("ab12cd34", payload)
        assert (
            first.path_for("ab12cd34").read_bytes()
            == second.path_for("ab12cd34").read_bytes()
        )

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_resumed_campaign_hits_cache_on_any_backend(self, kind, tmp_path):
        store = _store_for(kind, tmp_path)
        task = _tiny_task()
        first = CampaignRunner(store, workers=1).run([task])
        second = CampaignRunner(store, workers=1).run([task])
        assert first.computed == 1 and second.cached == 1


class TestRunnerDeterminism:
    def test_same_task_yields_byte_identical_artifacts(self, tmp_path):
        task = _tiny_task()
        stores = []
        for name in ("run1", "run2"):
            store = ArtifactStore(tmp_path / name)
            CampaignRunner(store, workers=1).run([task])
            stores.append(store)
        path_a = stores[0].path_for(task.key())
        path_b = stores[1].path_for(task.key())
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resumed_campaign_skips_cached_tasks(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tasks = get_grid("smoke").tasks()
        first = CampaignRunner(store, workers=1).run(tasks)
        assert first.computed == len(tasks) and first.cached == 0
        second = CampaignRunner(store, workers=1).run(tasks)
        assert second.computed == 0 and second.cached == len(tasks)
        assert second.cache_hit_fraction == 1.0
        assert "100% cache hits" in second.describe()

    def test_parallel_equals_sequential(self, tmp_path):
        # E8 measures wall-clock throughput, so its artifacts legitimately
        # differ between runs; every other experiment must match exactly.
        tasks = [
            task for task in get_grid("small").tasks() if task.experiment_id in ("E1", "E2")
        ]
        seq_store = ArtifactStore(tmp_path / "seq")
        par_store = ArtifactStore(tmp_path / "par")
        seq = CampaignRunner(seq_store, workers=1).run(tasks)
        par = CampaignRunner(par_store, workers=2).run(tasks)
        assert seq.computed == par.computed == len(tasks)
        for task in tasks:
            key = task.key()
            assert (
                seq_store.path_for(key).read_bytes() == par_store.path_for(key).read_bytes()
            )
        assert render_campaign_report(seq_store, tasks) == render_campaign_report(
            par_store, tasks
        )

    def test_duplicate_tasks_computed_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        task = _tiny_task()
        summary = CampaignRunner(store, workers=1).run([task, task])
        assert summary.total == 2 and summary.computed == 1 and summary.cached == 1

    def test_invalid_worker_count(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CampaignRunner(ArtifactStore(tmp_path), workers=0)


class TestGrids:
    def test_available_grids(self):
        grids = available_grids()
        assert {"smoke", "small", "medium", "solvers", "e14"} <= set(grids)
        assert all(description for description in grids.values())

    def test_unknown_grid(self):
        with pytest.raises(InvalidParameterError):
            get_grid("nope")

    def test_small_grid_covers_all_experiments(self):
        tasks = get_grid("small").tasks()
        assert {task.experiment_id for task in tasks} == {
            *(f"E{i}" for i in range(1, 11)),
            "E12",
            "E14",
            "E15",
            "E16",
            "E17",
        }

    def test_solvers_grid_sweeps_algorithms(self):
        grid = get_grid("solvers")
        variants = {entry.variant for entry in grid.entries}
        assert {"rejection-flow", "greedy", "fcfs"} <= variants
        for task in grid.tasks():
            assert task.experiment_id == "E10"
            assert dict(task.overrides)["algorithms"] == (task.variant,)

    def test_seedless_experiments_get_one_task(self):
        tasks = get_grid("small").tasks()
        by_exp = {}
        for task in tasks:
            by_exp.setdefault(task.experiment_id, []).append(task)
        assert len(by_exp["E2"]) == 1 and by_exp["E2"][0].seed is None
        assert len(by_exp["E5"]) == 1 and by_exp["E5"][0].seed is None
        assert len(by_exp["E1"]) == 2

    def test_grid_expansion_is_deterministic(self):
        first = get_grid("small").tasks(master_seed=5)
        second = get_grid("small").tasks(master_seed=5)
        assert first == second
        assert [t.key() for t in first] == [t.key() for t in second]
        different = get_grid("small").tasks(master_seed=6)
        seeded_keys = {t.key() for t in first if t.seed is not None}
        assert seeded_keys.isdisjoint(t.key() for t in different if t.seed is not None)


class TestAggregation:
    def test_aggregate_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(InvalidParameterError):
            aggregate_tables(store, [_tiny_task()])

    def test_aggregated_table_has_variant_and_seed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [_tiny_task(seed=1), _tiny_task(seed=2)]
        CampaignRunner(store, workers=1).run(tasks)
        (table,) = aggregate_tables(store, tasks)
        assert table.columns[:2] == ("variant", "seed")
        assert set(table.column("seed")) == {1, 2}

    def test_summary_table_and_csv_export(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tasks = get_grid("smoke").tasks()
        summary = CampaignRunner(store, workers=1).run(tasks)
        rendered = summary_table(summary.outcomes).render()
        assert "computed" in rendered
        paths = export_csv(aggregate_tables(store, tasks), tmp_path / "csv")
        assert len(paths) == 1 and paths[0].suffix == ".csv"
        header = paths[0].read_text().splitlines()[0]
        assert header.startswith("variant,seed,workload")


class TestCampaignCli:
    def test_list_grids(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "small:" in out and "smoke:" in out

    def test_list_tasks_of_grid(self, capsys):
        assert main(["campaign", "list", "--grid", "smoke"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("E1/")

    def test_run_then_cached_rerun_then_report(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["campaign", "run", "--grid", "smoke", "--store", store_dir, "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 computed, 0 cached" in first

        assert main(args + ["--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert "100% cache hits" in second
        # The cached re-run reproduces the identical aggregated report.
        assert first.split("# campaign:")[1] == second.split("# campaign:")[1]

        csv_dir = str(tmp_path / "csv")
        report_args = [
            "campaign", "report", "--grid", "smoke", "--store", store_dir, "--csv", csv_dir,
        ]
        assert main(report_args) == 0
        report_out = capsys.readouterr().out
        assert "[campaign]" in report_out and "csv:" in report_out

    def test_report_on_empty_store_errors(self, tmp_path, capsys):
        args = [
            "campaign", "report", "--grid", "smoke", "--store", str(tmp_path / "nothing"),
        ]
        assert main(args) == 1
        assert "missing" in capsys.readouterr().out


class TestE10ParallelRunner:
    """E10: the same E8-scale grid run sequentially, on a 4-worker pool and cached."""

    WORKERS = 4
    NUM_SEEDS = 4
    #: E8-scale per-task work: one scalability sweep per seed.
    E8_OVERRIDES = dict(job_counts=(500,), machine_counts=(4,), repeats=1)

    def _tasks(self) -> list[CampaignTask]:
        labels = [f"E8/bench/{i}" for i in range(self.NUM_SEEDS)]
        return [
            CampaignTask.create("E8", variant="bench", seed=seed, overrides=self.E8_OVERRIDES)
            for seed in seeds_for(2018, labels).values()
        ]

    def test_e10_parallel_matches_sequential(self, tmp_path):
        seq_store = ArtifactStore(tmp_path / "seq")
        par_store = ArtifactStore(tmp_path / "par")
        seq_summary = CampaignRunner(seq_store, workers=1).run(self._tasks())
        par_summary = CampaignRunner(par_store, workers=self.WORKERS).run(self._tasks())

        # Re-run against the populated store: everything must come from cache.
        cached_summary = CampaignRunner(par_store, workers=self.WORKERS).run(self._tasks())

        assert seq_summary.computed == par_summary.computed == self.NUM_SEEDS
        assert cached_summary.cached == self.NUM_SEEDS and cached_summary.computed == 0
        assert sorted(seq_store.keys()) == sorted(par_store.keys())
        assert render_campaign_report(par_store, self._tasks())

    def test_e10_cached_rerun_computes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(store, workers=1).run(self._tasks())
        summary = CampaignRunner(store, workers=1).run(self._tasks())
        assert summary.cached == self.NUM_SEEDS and summary.computed == 0
