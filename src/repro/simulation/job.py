"""Job model for unrelated-machine scheduling.

A job carries a release date, a per-machine size vector (processing time in
the unit-speed model of Section 2, processing *volume* in the speed-scaling
models of Sections 3 and 4), a weight (Section 3) and an optional deadline
(Section 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import InvalidInstanceError


@dataclass(frozen=True, slots=True)
class Job:
    """A single job of an unrelated-machine scheduling instance.

    Parameters
    ----------
    id:
        Integer identifier, unique within an :class:`~repro.simulation.instance.Instance`.
    release:
        Finite release date ``r_j >= 0``; the job is unknown to an online algorithm
        before this time.
    sizes:
        Tuple ``(p_1j, ..., p_mj)`` with the processing time / volume of the
        job on each machine.  Entries must be positive; ``math.inf`` encodes a
        forbidden assignment (restricted-assignment instances).
    weight:
        Positive weight ``w_j`` used by the weighted flow-time objective
        (Section 3).  Defaults to 1.0.
    deadline:
        Absolute deadline ``d_j > r_j`` used by the energy-minimisation
        problem (Section 4); ``math.inf`` is allowed, NaN is not; ``None`` when
        the instance has no deadlines.
    """

    id: int
    release: float
    sizes: tuple[float, ...]
    weight: float = 1.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.id < 0:
            raise InvalidInstanceError(f"job id must be non-negative, got {self.id}")
        # One chained comparison: NaN and infinity fail it as well as negatives.
        if not (0 <= self.release < math.inf):
            raise InvalidInstanceError(
                f"job {self.id}: release must be finite and non-negative, got {self.release}"
            )
        if not self.sizes:
            raise InvalidInstanceError(f"job {self.id}: empty size vector")
        for i, p in enumerate(self.sizes):
            if not (p > 0):
                raise InvalidInstanceError(
                    f"job {self.id}: size on machine {i} must be positive, got {p}"
                )
        if all(math.isinf(p) for p in self.sizes):
            raise InvalidInstanceError(
                f"job {self.id}: job cannot be processed on any machine"
            )
        if not (self.weight > 0):
            raise InvalidInstanceError(
                f"job {self.id}: weight must be positive, got {self.weight}"
            )
        # Written as ``not >`` so that a NaN deadline fails too; infinity passes.
        if self.deadline is not None and not (self.deadline > self.release):
            raise InvalidInstanceError(
                f"job {self.id}: deadline {self.deadline} must exceed release {self.release}"
            )

    # -- accessors -----------------------------------------------------------------

    def size_on(self, machine: int) -> float:
        """Processing time / volume of the job on ``machine``."""
        return self.sizes[machine]

    def density_on(self, machine: int) -> float:
        """Density ``delta_ij = w_j / p_ij`` used by the Section 3 ordering."""
        p = self.sizes[machine]
        if math.isinf(p):
            return 0.0
        return self.weight / p

    def eligible_machines(self) -> tuple[int, ...]:
        """Indices of machines on which the job may run (finite size)."""
        return tuple(i for i, p in enumerate(self.sizes) if math.isfinite(p))

    def min_size(self) -> float:
        """Smallest processing time over all machines."""
        return min(p for p in self.sizes if math.isfinite(p))

    def best_machine(self) -> int:
        """Machine index attaining :meth:`min_size` (lowest index on ties)."""
        best, best_p = 0, math.inf
        for i, p in enumerate(self.sizes):
            if p < best_p:
                best, best_p = i, p
        return best

    def window(self) -> float:
        """Length of the feasibility window ``d_j - r_j`` (requires a deadline)."""
        if self.deadline is None:
            raise InvalidInstanceError(f"job {self.id} has no deadline")
        return self.deadline - self.release

    # -- construction helpers ------------------------------------------------------

    @staticmethod
    def trusted(
        job_id: int,
        release: float,
        sizes: tuple[float, ...],
        weight: float = 1.0,
        deadline: float | None = None,
    ) -> "Job":
        """Construct a job **without** per-field validation.

        The dataclass ``__post_init__`` checks cost more than everything else
        in a 100k-job generator loop; bulk producers (the chunked generators
        in :mod:`repro.workloads.generators`) validate whole numpy chunks at
        once and then build rows through this trusted path.  Callers are
        responsible for upholding the invariants ``__post_init__`` enforces.
        """
        job = object.__new__(Job)
        object.__setattr__(job, "id", job_id)
        object.__setattr__(job, "release", release)
        object.__setattr__(job, "sizes", sizes)
        object.__setattr__(job, "weight", weight)
        object.__setattr__(job, "deadline", deadline)
        return job

    @staticmethod
    def uniform(
        job_id: int,
        release: float,
        size: float,
        machines: int,
        weight: float = 1.0,
        deadline: float | None = None,
    ) -> "Job":
        """Job with the same size on every machine (identical-machines case)."""
        return Job(
            id=job_id,
            release=release,
            sizes=tuple([size] * machines),
            weight=weight,
            deadline=deadline,
        )

    @staticmethod
    def from_mapping(
        job_id: int,
        release: float,
        sizes: Mapping[int, float] | Sequence[float],
        machines: int,
        weight: float = 1.0,
        deadline: float | None = None,
    ) -> "Job":
        """Build a job from a ``{machine: size}`` mapping (missing = forbidden)."""
        if isinstance(sizes, Mapping):
            vec = [math.inf] * machines
            for i, p in sizes.items():
                if not (0 <= i < machines):
                    raise InvalidInstanceError(
                        f"job {job_id}: machine index {i} out of range [0, {machines})"
                    )
                vec[i] = float(p)
            return Job(job_id, release, tuple(vec), weight, deadline)
        return Job(job_id, release, tuple(float(p) for p in sizes), weight, deadline)

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict representation (JSON-serialisable)."""
        return {
            "id": self.id,
            "release": self.release,
            "sizes": list(self.sizes),
            "weight": self.weight,
            "deadline": self.deadline,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Job":
        """Inverse of :meth:`to_dict`."""
        return Job(
            id=int(data["id"]),
            release=float(data["release"]),
            sizes=tuple(float(p) for p in data["sizes"]),
            weight=float(data.get("weight", 1.0)),
            deadline=None if data.get("deadline") is None else float(data["deadline"]),
        )
