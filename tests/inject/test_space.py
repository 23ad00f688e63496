"""Partitioner contract: the sharded space IS the enumerated space.

Property-tested guarantees every other inject module builds on:

* rank/unrank is a bijection per stratum, in the exact lexicographic
  order of :func:`repro.sim.faults.enumerate_scenarios`;
* the batched materializers (``counts_range`` / ``sample_counts``)
  return exactly the scalar reference's count vectors, column by column,
  including spaces whose strata outgrow int64;
* shards of a partition are pairwise disjoint and union-complete;
* shard fingerprints are pure functions of (target fingerprint, shard
  coordinates) — stable across processes (no interpreter-hash leakage).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.inject.partition import ShardSpec, partition_stratum, shard_fingerprint
from repro.inject.space import ScenarioSpace, scenario_key

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Instance fault capacities (reexecutions + 1 each); small enough to
#: brute-force, varied enough to hit ragged cap vectors.
caps_strategy = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=6
)


def brute_force_stratum(caps: list[int], total: int) -> list[tuple[int, ...]]:
    """All count vectors with the given total, lexicographic order."""
    if not caps:
        return [()] if total == 0 else []
    out = []
    for first in range(min(caps[0], total) + 1):
        for rest in brute_force_stratum(caps[1:], total - first):
            out.append((first,) + rest)
    return out


def named(caps: list[int]) -> list[tuple[str, int]]:
    return [(f"i{j}", cap) for j, cap in enumerate(caps)]


@given(caps=caps_strategy, k=st.integers(min_value=0, max_value=5))
@settings(max_examples=120, deadline=None)
def test_rank_unrank_bijection_in_lex_order(caps, k):
    space = ScenarioSpace(capacities=named(caps), k=k)
    total_seen = 0
    for t in range(k + 1):
        expected = brute_force_stratum([min(c, k) for c in caps], t)
        assert space.stratum_size(t) == len(expected)
        for index, counts in enumerate(expected):
            assert space.unrank(t, index) == counts
            assert space.rank(counts) == (t, index)
        total_seen += len(expected)
    assert space.total == total_seen


@given(
    caps=caps_strategy,
    k=st.integers(min_value=0, max_value=4),
    shard_size=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=80, deadline=None)
def test_shards_disjoint_and_union_complete(caps, k, shard_size):
    space = ScenarioSpace(capacities=named(caps), k=k)
    for t in range(k + 1):
        size = space.stratum_size(t)
        shards = partition_stratum(size, shard_size, t, wave=1 + t, seed=0)
        assert sum(s.hi - s.lo for s in shards) == size
        seen: list[tuple[int, ...]] = []
        for shard in shards:
            chunk = list(space.iter_range(t, shard.lo, shard.hi))
            assert len(chunk) == shard.hi - shard.lo
            seen.extend(chunk)
        # Disjoint + complete + ordered == exactly the enumeration.
        assert seen == brute_force_stratum([min(c, k) for c in caps], t)


def stacked(vectors: list[tuple[int, ...]], n: int) -> np.ndarray:
    """Scalar count vectors as the ``(n, B)`` matrix the batch path returns."""
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), n).T


def assert_count_matrix(matrix: np.ndarray, expected: np.ndarray) -> None:
    assert matrix.dtype == np.int64
    assert matrix.shape == expected.shape
    assert np.array_equal(matrix, expected)


@given(
    caps=caps_strategy,
    k=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_batched_materialization_matches_scalar(caps, k, data):
    space = ScenarioSpace(capacities=named(caps), k=k)
    n = len(caps)
    for t in range(k + 1):
        size = space.stratum_size(t)
        # Whole stratum, a random (possibly empty) range, an empty range
        # at the far end.
        lo = data.draw(st.integers(min_value=0, max_value=size))
        hi = data.draw(st.integers(min_value=lo, max_value=size))
        for a, b in ((0, size), (lo, hi), (size, size)):
            assert_count_matrix(
                space.counts_range(t, a, b),
                stacked(list(space.iter_range(t, a, b)), n),
            )
        # Unsorted draws with repeats, as the stratified tier makes them
        # (strata past the capacity total are empty).
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=size - 1),
                     max_size=12)
        ) if size else []
        indices += indices[:2]
        assert_count_matrix(
            space.sample_counts(t, indices),
            stacked([space.unrank(t, i) for i in indices], n),
        )
        for bad in (-1, size, 2**64):
            with pytest.raises(SimulationError, match="outside stratum"):
                space.sample_counts(t, [0, bad] if size else [bad])


def test_batched_materialization_past_int64():
    """Stratum sizes beyond 2**63 walk Python ints where int64 overflows."""
    space = ScenarioSpace(capacities=named([11] * 400), k=10)
    size = space.stratum_size(10)
    assert size == 32_308_197_757_577_553_240
    assert size > 2**63
    below = space.stratum_size(9)
    assert below < 2**63
    # Strata 0-9 walk int64 tables only.  Stratum 10 walks Python ints
    # only on the leading positions whose suffix counts pass int64.
    assert space._wide == [0] * 10 + [48]
    indices = [0, 2**63, size - 1]
    assert_count_matrix(
        space.sample_counts(10, indices),
        stacked([space.unrank(10, i) for i in indices], 400),
    )
    for t, lo, hi in ((10, 0, 3), (10, size - 3, size), (1, 0, 400),
                      (2, 1000, 1100), (9, below - 3, below)):
        assert_count_matrix(
            space.counts_range(t, lo, hi),
            stacked(list(space.iter_range(t, lo, hi)), 400),
        )
    with pytest.raises(SimulationError, match="outside stratum"):
        space.sample_counts(10, [size])
    with pytest.raises(SimulationError, match="outside stratum"):
        space.sample_counts(9, [2**63])


def test_space_matches_enumerate_scenarios(small_target):
    """End to end vs the reference generator on a real FT graph."""
    from repro.sim.faults import enumerate_scenarios

    context = small_target.build_context()
    k = small_target.faults.k
    space = ScenarioSpace.of(context.ft, k)
    expected = [
        scenario_key(s.failures)
        for s in enumerate_scenarios(context.ft, k)
    ]
    produced = []
    for t in range(k + 1):
        for counts in space.iter_range(t, 0, space.stratum_size(t)):
            produced.append(scenario_key(space.scenario(counts).failures))
    assert produced == expected
    assert len(set(produced)) == len(produced)


def test_shard_fingerprints_stable_across_processes():
    spec = ShardSpec(
        tier="stratified", wave=2, stratum=1, lo=3, hi=4, draws=500, seed=9
    )
    local = shard_fingerprint("cafe" * 16, spec)
    script = (
        "from repro.inject.partition import ShardSpec, shard_fingerprint;"
        "spec = ShardSpec(tier='stratified', wave=2, stratum=1, lo=3,"
        " hi=4, draws=500, seed=9);"
        "print(shard_fingerprint('cafe' * 16, spec))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": "77"},
    )
    assert out.stdout.strip() == local


def test_rng_label_is_the_documented_contract():
    spec = ShardSpec(
        tier="stratified", wave=1, stratum=2, lo=5, hi=6, draws=100, seed=4
    )
    assert spec.rng_label() == "inject:4:2:5"
