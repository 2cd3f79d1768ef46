"""Tests for the decision logic of the same-runner A/B gate (``benchmarks/ab.py``)."""

from pathlib import Path

import pytest

from benchmarks.ab import compare, load_spec, render, worsening

REPO = Path(__file__).resolve().parents[1]

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}


def _run(jobs_per_s=1000.0, peak_rss_mb=100.0, correct=True, failed=0, returncode=0):
    return {
        "returncode": returncode,
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {"w.jobs_per_s": jobs_per_s, "w.peak_rss_mb": peak_rss_mb},
    }


def _runs(n=5, **fields):
    return [_run(**fields) for _ in range(n)]


def _verdicts(rows):
    return {metric["name"]: ok for _, metric, _, _, _, ok in rows}


class TestCompare:
    def test_identical_runs_pass(self):
        rows, failures = compare(SPEC, _runs(), _runs())
        assert failures == []
        assert _verdicts(rows) == {"jobs_per_s": True, "peak_rss_mb": True}

    def test_higher_better_worse_beyond_bound_fails(self):
        rows, failures = compare(SPEC, _runs(), _runs(jobs_per_s=700.0))
        assert _verdicts(rows)["jobs_per_s"] is False
        assert len(failures) == 1 and failures[0].startswith("w.jobs_per_s")

    def test_lower_better_worse_beyond_bound_fails(self):
        rows, failures = compare(SPEC, _runs(), _runs(peak_rss_mb=115.0))
        assert _verdicts(rows)["peak_rss_mb"] is False
        assert len(failures) == 1 and failures[0].startswith("w.peak_rss_mb")

    def test_change_within_bound_passes(self):
        rows, failures = compare(SPEC, _runs(), _runs(jobs_per_s=800.0, peak_rss_mb=109.0))
        assert failures == []

    def test_improvement_passes(self):
        rows, failures = compare(SPEC, _runs(), _runs(jobs_per_s=5000.0, peak_rss_mb=20.0))
        assert failures == []
        assert all(worse < 0 for _, _, _, _, worse, _ in rows)

    def test_one_outlier_pair_does_not_flip_the_median(self):
        head = _runs(4) + [_run(jobs_per_s=10.0, peak_rss_mb=900.0)]
        _, failures = compare(SPEC, _runs(), head)
        assert failures == []
        base = [_run(jobs_per_s=90000.0)] + _runs(4)
        _, failures = compare(SPEC, base, _runs())
        assert failures == []

    @pytest.mark.parametrize("side", ["base", "head"])
    def test_incorrect_run_fails(self, side):
        broken = _runs(4) + [_run(correct=False, returncode=1)]
        runs = {"base": _runs(), "head": _runs(), side: broken}
        _, failures = compare(SPEC, runs["base"], runs["head"])
        assert failures == [f"{side} run 5: exit code 1, correct False"]

    def test_nonzero_exit_fails_even_if_correct(self):
        _, failures = compare(SPEC, _runs(), _runs(4) + [_run(returncode=2)])
        assert failures == ["head run 5: exit code 2, correct True"]

    def test_more_failed_operations_fails(self):
        _, failures = compare(SPEC, _runs(failed=1), _runs(failed=2))
        assert failures == ["failed operations: head 0.0200 > base 0.0100"]
        _, failures = compare(SPEC, _runs(failed=2), _runs(failed=1))
        assert failures == []

    def test_missing_metric_fails(self):
        head = _runs()
        del head[2]["metrics"]["w.jobs_per_s"]
        _, failures = compare(SPEC, _runs(), head)
        assert failures == ["w.jobs_per_s: missing from some runs"]

    def test_worsening_sign_and_zero_base(self):
        assert worsening(100.0, 80.0, "higher") == pytest.approx(0.2)
        assert worsening(100.0, 80.0, "lower") == pytest.approx(-0.2)
        assert worsening(0.0, 0.0, "lower") == 0.0
        assert worsening(0.0, 0.1, "lower") == float("inf")

    def test_render_reports_verdict_and_reasons(self):
        base, head = _runs(), _runs(jobs_per_s=700.0, failed=1)
        rows, failures = compare(SPEC, base, head)
        report = render(rows, failures, base, head)
        assert report.startswith("## perfbench A/B: FAIL")
        assert "Failed operations: base 0/500, head 5/500." in report
        row = "| w | jobs_per_s (jobs/s) | higher | 25% | 1000 | 700 | +30.0% | **worse** |"
        assert row in report
        assert "- w.jobs_per_s: head 700 is +30.0% worse than base 1000 (bound 25%)" in report


class TestCheckedInSpec:
    def test_every_end_to_end_entry_is_read(self):
        spec = load_spec(REPO)
        names = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}
        metrics = {name: 1.0 for name in names}
        run = {"returncode": 0, "correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        rows, failures = compare(spec, [run], [run])
        assert failures == []
        assert {f"{workload}.{metric['name']}" for workload, metric, *_ in rows} == names
        assert len(rows) == len(spec["workloads"]) * len(spec["end_to_end"]) == 24
        for _, metric, *_ in rows:
            assert metric["better"] in ("higher", "lower") and metric["bound"] > 0
