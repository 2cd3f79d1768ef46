"""Byte-identity of the canonical encoders behind artifact keys and blobs.

Two fast paths produce bytes that other stores, caches and CI diffs depend
on: the indented branch of :func:`canonical_json` (every artifact blob) and
the columnar :func:`source_fingerprint` (every shard-solve artifact key).
Both are held to their straightforward definitions here:

* a hypothesis property compares ``canonical_json(v, indent=2)`` with
  ``json.dumps(jsonify(v), sort_keys=True, indent=2, ...)`` on nested
  payloads full of awkward leaves;
* a hypothesis property compares the columnar fingerprint with the
  dict-per-job ``stable_hash`` it replaced, across re-chunkings;
* a checked-in golden (``tests/data/shard_store_golden.json``) pins the
  artifact keys and the sha256 of every artifact blob that ``shard_solve``
  writes at k=1 and k=3 for a hand-built job list.  A parity oracle that
  drifted together with the code would pass the properties; the golden
  does not move with the code.  It was recorded before the fast paths
  existed — never regenerate it to make a failure go away.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from pathlib import Path, PurePosixPath
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaigns.backends import MemoryBackend
from repro.campaigns.store import ArtifactStore, blob_key_for
from repro.parallel import normalise_source, shard_solve, source_fingerprint
from repro.simulation.machine import Machine
from repro.utils.serialization import canonical_json, jsonify, stable_hash
from repro.workloads.generators import JobChunk

GOLDEN_PATH = Path(__file__).parent / "data" / "shard_store_golden.json"

GOLDEN_SHARDS = (1, 3)


def _golden_source() -> tuple[list[JobChunk], tuple[Machine, ...]]:
    """A hand-built 48-job, 6-machine source: arithmetic only, no RNG.

    Ids are sparse, weights take three classes, some sizes are forbidden
    (``inf``) and the fleet mixes speed factors — but every strided
    3-machine-group split leaves each job a finite size.
    """
    num_jobs, num_machines = 48, 6
    ids = np.array([2 * j + 1 for j in range(num_jobs)], dtype=np.int64)
    releases = np.array(
        [j * 0.75 + (0.125 if j % 5 == 0 else 0.0) for j in range(num_jobs)]
    )
    sizes = np.array(
        [
            [
                math.inf if (j + i) % 7 == 0 else 1.0 + ((3 * j + 5 * i) % 11) * 0.5
                for i in range(num_machines)
            ]
            for j in range(num_jobs)
        ]
    )
    weights = np.array([1.0 + (j % 3) for j in range(num_jobs)])
    chunks = [
        JobChunk(
            start=lo,
            releases=releases[lo:hi],
            sizes=sizes[lo:hi],
            weights=weights[lo:hi],
            ids=ids[lo:hi],
        )
        for lo, hi in ((0, 20), (20, 37), (37, num_jobs))
    ]
    fleet = tuple(
        Machine(id=i, speed_factor=1.0 + 0.25 * (i % 3), alpha=2.0 + i % 2)
        for i in range(num_machines)
    )
    return chunks, fleet


def golden_snapshot() -> dict:
    """Fingerprint, artifact keys and per-blob sha256 for the golden source."""
    chunks, fleet = _golden_source()
    snapshot: dict = {"fingerprint": source_fingerprint(*normalise_source(chunks, fleet))}
    for num_shards in GOLDEN_SHARDS:
        store = ArtifactStore(backend=MemoryBackend())
        result = shard_solve(
            chunks, "rejection-flow", num_shards, machines=fleet, store=store,
            epsilon=0.25,
        )
        snapshot[f"k={num_shards}"] = {
            "merged_key": result.merged_key,
            "shard_keys": list(result.shard_keys),
            "sha256": {
                key: hashlib.sha256(store.backend.get(blob_key_for(key))).hexdigest()
                for key in store.keys()
            },
        }
    return snapshot


def test_shard_store_bytes_match_golden():
    assert golden_snapshot() == json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------------------
# Indented canonical_json vs the json.dumps(jsonify(...)) oracle
# --------------------------------------------------------------------------------------


def _oracle_json(value: Any, indent: "int | str") -> str:
    return json.dumps(jsonify(value), sort_keys=True, indent=indent, separators=(",", ": "))


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tag(str, enum.Enum):
    HOT = "hot"


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


AWKWARD_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 1e-05, 5e-324, 1e16, 1e22)

plain_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(AWKWARD_FLOATS),
    st.text(),  # non-ASCII and control characters included
)

leaves = st.one_of(
    plain_leaves,
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.integers(min_value=0, max_value=2**31).map(np.uint32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([Colour.RED, Colour.BLUE, Tag.HOT]),
    st.text(min_size=1, max_size=8).map(PurePosixPath),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), min_size=2, max_size=4).map(
        lambda row: np.array([row, row], dtype=np.int32)
    ),
)

flat_keys = st.sampled_from(["time", "kind", "job_id", "machine", "speed", "%s", "a%d", "é"])

flat_rows = st.lists(st.dictionaries(flat_keys, plain_leaves, max_size=5), max_size=6)

payloads = st.recursive(
    leaves | flat_rows,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=4),
        st.sets(st.integers(-3, 3), max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)),
                        children, max_size=4),
        st.builds(Pair, left=children, right=children),
        # Rows that look flat but carry a nested value or differ in key sets.
        st.lists(st.dictionaries(flat_keys, children, max_size=4), max_size=4),
    ),
    max_leaves=25,
)


_ROWS = [{"b": 1.5, "a": None}, {"a": "x", "b": -0.0}]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=payloads, indent=st.sampled_from([2, 2, 0, 4, "\t"]))
@example(value=[[], {}, (), set(), "", 0, -0.0, None, [[]], {"a": {}}], indent=2)
@example(  # the same rows at several nesting levels (templates are per level)
    value={"top": _ROWS, "deep": {"deeper": [_ROWS, {"rows": _ROWS}]}, "mixed": _ROWS + [[_ROWS]]},
    indent=2,
)
def test_indented_encoder_matches_json_dumps(value, indent):
    assert canonical_json(value, indent=indent) == _oracle_json(value, indent)


@pytest.mark.parametrize(
    "value",
    [
        object(),
        {"a": [1, complex(1, 2)]},
        [np.bool_(True)],
        {"z": {1, 2}, "b": object(), "a": complex(0, 1)},  # first bad value in insertion order
        [{"time": 1.0, "bad": b"bytes"}],
    ],
)
def test_indented_encoder_raises_the_same_type_error(value):
    with pytest.raises(TypeError) as expected:
        _oracle_json(value, 2)
    with pytest.raises(TypeError) as actual:
        canonical_json(value, indent=2)
    assert str(actual.value) == str(expected.value)


# --------------------------------------------------------------------------------------
# Columnar source_fingerprint vs the dict-per-job stable_hash
# --------------------------------------------------------------------------------------


def _dict_fingerprint(chunks, fleet) -> str:
    """The fingerprint's definition: ``stable_hash`` of one dict per job."""
    return stable_hash(
        {
            "machines": [machine.to_dict() for machine in fleet],
            "jobs": [job.to_dict() for chunk in chunks for job in chunk.jobs()],
        }
    )


positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def job_sources(draw):
    """``(chunkings, fleet)``: one job list split several ways into chunks."""
    width = draw(st.integers(1, 4))
    count = draw(st.integers(0, 12))
    integral = draw(st.booleans())
    gaps = draw(st.lists(st.integers(0, 5) if integral else st.floats(0, 50), min_size=count,
                         max_size=count))
    releases = np.cumsum(np.array(gaps, dtype=np.int64 if integral else np.float64))
    rows = []
    for _ in range(count):
        row = draw(st.lists(st.one_of(positive, st.just(math.inf)), min_size=width,
                            max_size=width))
        if all(math.isinf(size) for size in row):
            row[draw(st.integers(0, width - 1))] = draw(positive)
        rows.append(row)
    sizes = np.array(rows, dtype=np.float64).reshape(count, width)
    ids = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 2**40), min_size=count, max_size=count, unique=True).map(
            lambda values: np.array(values, dtype=np.int64)
        ),
    ))
    weights = draw(st.one_of(
        st.none(),
        st.lists(positive, min_size=count, max_size=count).map(np.array),
    ))
    deadlines = draw(st.one_of(
        st.none(),
        st.lists(st.one_of(positive, st.just(math.inf)), min_size=count, max_size=count).map(
            lambda slack: releases + np.array(slack)
        ),
    ))
    start = draw(st.integers(0, 100))
    chunkings = []
    for _ in range(3):
        cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
        bounds = [0, *cuts, count]
        chunkings.append([
            JobChunk(
                start=start + lo,
                releases=releases[lo:hi],
                sizes=sizes[lo:hi],
                weights=None if weights is None else weights[lo:hi],
                deadlines=None if deadlines is None else deadlines[lo:hi],
                ids=None if ids is None else ids[lo:hi],
            )
            for lo, hi in zip(bounds, bounds[1:])
        ])
    fleet = tuple(
        Machine(id=i, speed_factor=draw(positive), alpha=draw(st.floats(1.1, 4.0)))
        for i in range(width)
    )
    return chunkings, fleet


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=job_sources())
def test_columnar_fingerprint_matches_dict_fingerprint(source):
    chunkings, fleet = source
    expected = _dict_fingerprint(chunkings[0], fleet)
    for chunks in chunkings:
        assert source_fingerprint(chunks, fleet) == expected
        normalised, _ = normalise_source(chunks, fleet)
        assert source_fingerprint(normalised, fleet) == _dict_fingerprint(normalised, fleet)


if __name__ == "__main__":  # pragma: no cover - prints the snapshot for inspection
    print(json.dumps(golden_snapshot(), indent=2, sort_keys=True))
