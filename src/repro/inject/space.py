"""Canonical indexing of the ≤k-fault scenario space.

A fault scenario over an FT graph is a vector ``(f_0 … f_{n-1})`` of
failed-attempt counts, one entry per instance in sorted-id order, with
``0 <= f_i <= cap_i`` (``cap_i = reexecutions + 1``, beyond which there is
nothing left to hit) — exactly the space
:func:`repro.sim.faults.enumerate_scenarios` walks.  This module gives
that space *random access*:

* the scenarios with exactly ``t`` total faults form **stratum** ``t``,
  whose size is computed exactly by a suffix-count DP;
* within a stratum, scenarios are ordered lexicographically by their
  count vector (the same order the recursive enumerator yields), and a
  rank/unrank bijection maps ``[0, size_t)`` onto them;
* any index range or draw list of a stratum can be materialized without
  touching the rest of the space, which is what makes disjoint shards
  independently executable on any worker:
  :meth:`ScenarioSpace.counts_range` and
  :meth:`ScenarioSpace.sample_counts` unrank a whole block in one numpy
  walk over per-position lookup tables, and
  :meth:`ScenarioSpace.iter_range` (unrank the first index, then step a
  bounded-composition successor) and :meth:`ScenarioSpace.unrank` are
  their scalar reference.

Everything here is a pure function of the sorted ``(instance id,
capacity)`` list, so two processes that agree on the FT graph agree on
every index — the foundation of the partitioner's determinism contract.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.model.ftgraph import FTGraph
from repro.sim.faults import FaultScenario

_INT64_MAX = int(np.iinfo(np.int64).max)


def scenario_key(failures: Mapping[str, int]) -> str:
    """Canonical text fingerprint of one failure map.

    Sorted ``iid:count`` pairs, zero counts dropped — two scenarios are
    the same iff their keys are equal, which is what the samplers dedupe
    on and the aggregator classifies exemplars by.
    """
    items = sorted((iid, n) for iid, n in failures.items() if n > 0)
    return ";".join(f"{iid}:{n}" for iid, n in items) or "-"


class ScenarioSpace:
    """Rank/unrank view of the ≤k-fault scenarios of one FT graph."""

    def __init__(self, capacities: Sequence[tuple[str, int]], k: int) -> None:
        if k < 0:
            raise SimulationError(f"fault budget k must be >= 0, got {k}")
        self.ids = tuple(iid for iid, _ in capacities)
        # Per-stratum counts never exceed k faults on one instance, so
        # capping keeps the DP small without changing any stratum.
        self.caps = tuple(min(cap, k) for _, cap in capacities)
        self.k = k
        # suffix[i][r]: number of ways to distribute exactly r faults
        # over instances i..n-1 within their capacities.
        n = len(self.caps)
        suffix = [[0] * (k + 1) for _ in range(n + 1)]
        suffix[n][0] = 1
        for i in range(n - 1, -1, -1):
            cap = self.caps[i]
            row = suffix[i]
            nxt = suffix[i + 1]
            for r in range(k + 1):
                total = 0
                for f in range(min(cap, r) + 1):
                    total += nxt[r - f]
                row[r] = total
        self._suffix = suffix
        # Lookup tables of the batch unrank walk, indexed [i, f, r] with
        # f a candidate count at position i and r the remaining budget:
        # ways = suffix[i+1][r-f] (0 where f > min(cap_i, r)), bounds its
        # inclusive and prefixes its exclusive cumulative sum over f.
        # Zero-ways entries repeat the total suffix[i][r], which every
        # residual index at (i, r) is below, so counting the bounds <= a
        # residual gives the scalar walk's choice of f.
        #
        # No entry at (i, r) exceeds suffix[i][r], which shrinks as i
        # grows, and stratum t's walk reads budgets r <= t only.  So
        # stratum t needs Python-int (object) tables only on its first
        # _wide[t] positions, those with some suffix[i][r <= t] past
        # int64, and walks int64 tables from there on (their entries
        # past int64 are clamped; no walk reads them).
        try:
            table = np.array(suffix, dtype=np.int64)
        except OverflowError:
            table = np.array(suffix, dtype=object)
        self._wide = (
            np.maximum.accumulate(table[:n], axis=1) > _INT64_MAX
        ).sum(axis=0).tolist()
        spent = np.arange(k + 1)[:, None]
        budget = np.arange(k + 1)[None, :]
        fits = spent <= np.minimum(
            np.array(self.caps, dtype=np.int64)[:, None, None], budget
        )
        ways = np.where(fits, table[1:, np.maximum(budget - spent, 0)], 0)
        bounds = ways.cumsum(axis=1)
        self._wide_tables = (bounds, bounds - ways)
        self._tables = tuple(
            np.minimum(a, _INT64_MAX).astype(np.int64)
            for a in self._wide_tables
        )

    @classmethod
    def of(cls, ft: FTGraph, k: int) -> "ScenarioSpace":
        """The space of ``ft``: sorted instance ids, ``reexec + 1`` caps."""
        capacities = [
            (iid, ft.instance(iid).reexecutions + 1)
            for iid in sorted(ft.instances)
        ]
        return cls(capacities, k)

    # -- sizes -------------------------------------------------------------

    def stratum_size(self, t: int) -> int:
        """Number of scenarios with exactly ``t`` total faults."""
        if not 0 <= t <= self.k:
            raise SimulationError(
                f"stratum {t} outside the fault model (k={self.k})"
            )
        return self._suffix[0][t]

    @property
    def total(self) -> int:
        """Number of scenarios with at most ``k`` total faults."""
        return sum(self._suffix[0][t] for t in range(self.k + 1))

    # -- rank/unrank -------------------------------------------------------

    def unrank(self, t: int, index: int) -> tuple[int, ...]:
        """The ``index``-th count vector of stratum ``t`` (lex order)."""
        size = self.stratum_size(t)
        if not 0 <= index < size:
            raise SimulationError(
                f"index {index} outside stratum {t} (size {size})"
            )
        suffix = self._suffix
        counts = []
        remaining = t
        m = index
        for i, cap in enumerate(self.caps):
            for f in range(min(cap, remaining) + 1):
                ways = suffix[i + 1][remaining - f]
                if m < ways:
                    counts.append(f)
                    remaining -= f
                    break
                m -= ways
            else:  # pragma: no cover - excluded by the bounds check above
                raise SimulationError("unrank fell off the capacity lattice")
        return tuple(counts)

    def rank(self, counts: Sequence[int]) -> tuple[int, int]:
        """Inverse of :meth:`unrank`: ``(stratum, index)`` of a vector."""
        if len(counts) != len(self.caps):
            raise SimulationError(
                f"count vector has {len(counts)} entries, "
                f"space has {len(self.caps)} instances"
            )
        t = sum(counts)
        if t > self.k:
            raise SimulationError(
                f"vector spends {t} faults, fault model allows {self.k}"
            )
        suffix = self._suffix
        index = 0
        remaining = t
        for i, (f, cap) in enumerate(zip(counts, self.caps)):
            if not 0 <= f <= cap:
                raise SimulationError(
                    f"count {f} outside capacity {cap} at position {i}"
                )
            for smaller in range(f):
                index += suffix[i + 1][remaining - smaller]
            remaining -= f
        return t, index

    # -- range materialization --------------------------------------------

    def iter_range(self, t: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """Count vectors ``lo <= index < hi`` of stratum ``t``, in order.

        The first vector is unranked; the rest follow by the successor
        step, so a shard of ``m`` scenarios costs ``O(n·k + m·n)`` rather
        than ``m`` full unrankings.
        """
        size = self.stratum_size(t)
        if not 0 <= lo <= hi <= size:
            raise SimulationError(
                f"range [{lo}, {hi}) outside stratum {t} (size {size})"
            )
        if lo == hi:
            return
        counts = list(self.unrank(t, lo))
        yield tuple(counts)
        for _ in range(hi - lo - 1):
            self._advance(counts)
            yield tuple(counts)

    def _advance(self, counts: list[int]) -> None:
        """In-place lexicographic successor within the same stratum.

        Scanning right to left, move one unit of the tail budget onto the
        first position that can absorb it, then re-spread the remaining
        tail as far right as it fits (the lex-smallest completion).
        """
        caps = self.caps
        n = len(counts)
        tail = 0  # faults at positions > i
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                tail += counts[i + 1]
            if tail >= 1 and counts[i] < caps[i]:
                # The remaining tail-1 always fits to the right of i:
                # tail-1 < tail <= capacity of positions > i (the current
                # vector is valid).  Re-spread it right-packed.
                counts[i] += 1
                rest = tail - 1
                for j in range(n - 1, i, -1):
                    take = min(caps[j], rest)
                    counts[j] = take
                    rest -= take
                if rest:  # pragma: no cover - tail-1 < tail_cap always fits
                    raise SimulationError("successor overflow (internal)")
                return
        raise SimulationError("advanced past the end of the stratum")

    # -- array-native materialization ---------------------------------------

    def counts_range(self, t: int, lo: int, hi: int) -> np.ndarray:
        """Stratum-``t`` count vectors ``lo..hi`` as an ``(n, hi-lo)`` matrix.

        Column ``j`` is the vector at index ``lo + j`` — the order
        :meth:`iter_range` yields — written straight into an int64
        matrix so the batched simulator's hot path allocates no
        per-scenario tuples or :class:`FaultScenario` objects.
        """
        size = self.stratum_size(t)
        if not 0 <= lo <= hi <= size:
            raise SimulationError(
                f"range [{lo}, {hi}) outside stratum {t} (size {size})"
            )
        return self._unrank_walk(
            t, np.arange(lo, hi, dtype=object if hi > _INT64_MAX else np.int64)
        )

    def sample_counts(self, t: int, indices: Sequence[int]) -> np.ndarray:
        """Arbitrary stratum-``t`` indices as an ``(n, len(indices))`` matrix.

        The stratified tier's draws are not contiguous; column ``j`` is
        ``unrank(t, indices[j])``.
        """
        size = self.stratum_size(t)
        try:
            residual = np.array(indices, dtype=np.int64)
        except OverflowError:  # past int64: only a wide stratum holds them
            residual = np.array(indices, dtype=object)
        outside = (residual < 0) | (residual >= size)
        if outside.any():
            raise SimulationError(
                f"index {residual[outside.argmax()]} outside stratum {t} "
                f"(size {size})"
            )
        return self._unrank_walk(t, residual)

    def _unrank_walk(self, t: int, indices: np.ndarray) -> np.ndarray:
        """``unrank(t, i)`` of every in-range index ``i``, as int64 columns.

        One step per instance position does the whole block at once: it
        gathers each column's bound row by its remaining budget, counts
        the bounds <= its residual index (that count is the column's
        fault count there), then subtracts the exclusive prefix and
        spends the budget.  Positions before ``_wide[t]`` step on
        Python-int residuals and tables, the rest on int64.
        """
        n = len(self.caps)
        counts = np.empty((n, len(indices)), dtype=np.int64)
        budget = np.full(len(indices), t, dtype=np.int64)
        residual = indices
        wide = self._wide[t]
        for (bounds, prefixes), positions in (
            (self._wide_tables, range(wide)),
            (self._tables, range(wide, n)),
        ):
            if not positions:
                continue
            residual = residual.astype(bounds.dtype)
            for i in positions:
                # (t, B) bounds of each column's budget (rows f >= t
                # hold the total, which no residual reaches); summing
                # the bool compare down axis 0 keeps the reduction
                # vectorized over B.
                f = np.add.reduce(
                    bounds[i, :t].take(budget, axis=1) <= residual,
                    axis=0, dtype=np.int64,
                )
                counts[i] = f
                residual -= prefixes[i, f, budget]
                budget -= f
        return counts

    def counts_matrix(self, scenarios: Sequence[FaultScenario]) -> np.ndarray:
        """Explicit scenarios (e.g. the importance list) as a count matrix."""
        index_of = {iid: i for i, iid in enumerate(self.ids)}
        out = np.zeros((len(self.ids), len(scenarios)), dtype=np.int64)
        for j, scenario in enumerate(scenarios):
            for iid, count in scenario.failures.items():
                try:
                    out[index_of[iid], j] = count
                except KeyError:
                    raise SimulationError(
                        f"scenario names unknown instance {iid!r}"
                    ) from None
        return out

    # -- scenario construction --------------------------------------------

    def scenario(self, counts: Sequence[int]) -> FaultScenario:
        """Materialize a count vector as a :class:`FaultScenario`.

        Counts are coerced to Python ints so columns sliced from numpy
        matrices serialize and ``repr`` identically to the scalar path.
        """
        return FaultScenario(
            failures={
                iid: int(f) for iid, f in zip(self.ids, counts) if f > 0
            }
        )
