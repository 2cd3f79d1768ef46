"""Unit tests for :mod:`repro.simulation.job`."""

import math

import pytest

from repro.exceptions import InvalidInstanceError
from repro.simulation.job import Job


class TestJobValidation:
    def test_valid_job(self):
        job = Job(0, 1.0, (2.0, 3.0), weight=2.0, deadline=5.0)
        assert job.id == 0

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(-1, 0.0, (1.0,))

    def test_negative_release_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, -1.0, (1.0,))

    def test_empty_sizes_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, ())

    def test_non_positive_size_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, (0.0,))

    def test_all_infinite_sizes_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, (math.inf, math.inf))

    def test_non_positive_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, (1.0,), weight=0.0)

    def test_deadline_before_release_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 5.0, (1.0,), deadline=4.0)

    @pytest.mark.parametrize("release", [math.nan, math.inf])
    def test_non_finite_release_rejected(self, release):
        with pytest.raises(InvalidInstanceError, match="finite"):
            Job(0, release, (1.0,))

    def test_nan_deadline_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 1.0, (1.0,), deadline=math.nan)

    def test_infinite_deadline_allowed(self):
        assert Job(0, 1.0, (1.0,), deadline=math.inf).deadline == math.inf


class TestJobAccessors:
    def test_size_on(self):
        job = Job(0, 0.0, (2.0, 3.0))
        assert job.size_on(0) == 2.0
        assert job.size_on(1) == 3.0

    def test_density_on(self):
        job = Job(0, 0.0, (2.0, 4.0), weight=4.0)
        assert job.density_on(0) == pytest.approx(2.0)
        assert job.density_on(1) == pytest.approx(1.0)

    def test_density_on_forbidden_machine_is_zero(self):
        job = Job(0, 0.0, (math.inf, 4.0))
        assert job.density_on(0) == 0.0

    def test_eligible_machines(self):
        job = Job(0, 0.0, (math.inf, 4.0, 1.0))
        assert job.eligible_machines() == (1, 2)

    def test_min_size_ignores_infinite(self):
        job = Job(0, 0.0, (math.inf, 4.0, 1.5))
        assert job.min_size() == 1.5

    def test_best_machine(self):
        job = Job(0, 0.0, (3.0, 1.0, 2.0))
        assert job.best_machine() == 1

    def test_window(self):
        job = Job(0, 1.0, (1.0,), deadline=4.0)
        assert job.window() == pytest.approx(3.0)

    def test_window_without_deadline_raises(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 1.0, (1.0,)).window()


class TestJobConstruction:
    def test_uniform(self):
        job = Job.uniform(3, 1.0, 5.0, machines=4)
        assert job.sizes == (5.0, 5.0, 5.0, 5.0)

    def test_from_mapping_dict(self):
        job = Job.from_mapping(0, 0.0, {1: 3.0}, machines=3)
        assert math.isinf(job.sizes[0]) and job.sizes[1] == 3.0 and math.isinf(job.sizes[2])

    def test_from_mapping_sequence(self):
        job = Job.from_mapping(0, 0.0, [1.0, 2.0], machines=2)
        assert job.sizes == (1.0, 2.0)

    def test_from_mapping_bad_index(self):
        with pytest.raises(InvalidInstanceError):
            Job.from_mapping(0, 0.0, {5: 1.0}, machines=2)


class TestJobSerialisation:
    def test_roundtrip(self):
        job = Job(2, 1.5, (2.0, 3.0), weight=1.5, deadline=9.0)
        assert Job.from_dict(job.to_dict()) == job

    def test_roundtrip_without_deadline(self):
        job = Job(2, 1.5, (2.0,))
        restored = Job.from_dict(job.to_dict())
        assert restored.deadline is None
        assert restored == job

    def test_immutability(self):
        job = Job(0, 0.0, (1.0,))
        with pytest.raises(Exception):
            job.release = 5.0  # type: ignore[misc]
