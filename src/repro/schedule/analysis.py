"""Worst-case (k, µ) fault analysis with shared recovery slack.

This module is the analytical heart of the reproduction.  It computes, for
every scheduled instance, the worst-case finish time (WCF) over *all*
scenarios of at most ``k`` transient faults, reproducing three key paper
behaviours:

* **Re-execution slack** (Fig. 2a): a lone process with WCET ``C`` and ``e``
  re-executions finishes at worst at ``start + C + e*(C+µ)``.
* **Slack sharing** (Fig. 3b): processes scheduled consecutively on one node
  share recovery slack; the per-node chain DP below computes the exact worst
  finish for every fault budget instead of summing per-process slacks.
* **Replica contingency** (Fig. 7): a process waiting on a replicated
  predecessor may be placed right after the local replica; the scenario in
  which the local replica was killed consumed faults, so the remaining
  budget — and hence the required slack — shrinks, possibly to zero.

Chain DP
--------
For the ``i``-th instance of a node's schedule (order = placement order) and
a fault budget ``q``::

    F(i, q) = max over t in [0, min(q, e_i)] of
                 max(rel_i(q - t), F(i - 1, q - t)) + C_i + t * (C_i + µ)

``rel_i(c)`` is the guaranteed release of the instance when an adversary may
spend ``c`` faults killing input replicas (see
:func:`group_guaranteed_arrival`).  ``F(i, 0)`` is the fault-free (root)
finish.  The *tail* passed to the next chain element additionally covers the
scenario where instance ``i`` is terminally killed (all ``e_i + 1``
executions fail), which occupies ``(e_i+1) * (C_i + µ)``.

Soundness note: both the ``rel`` and the chain term receive the same budget
``q - t``; an adversary fault can therefore be counted against both terms.
This slight pessimism (never optimism) keeps the analysis safe — the
fault-injection validator in :mod:`repro.sim` checks the bound from below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.model.fault import FaultModel
from repro.model.ftgraph import Instance

_NEG_INF = float("-inf")


def group_survivor_index(
    arrivals: list[tuple[float, int]],
    budget: int,
) -> int:
    """Index of the surviving entry under ``budget`` kills (see below).

    ``arrivals`` is a list of ``(arrival_time, kill_cost)`` pairs sorted by
    arrival time.  The adversary delays the receiver most by terminally
    killing the earliest-arriving replicas first; it must stop at the first
    replica it cannot afford (killing a *later* replica while an earlier one
    survives gains nothing).  At least one replica always survives because a
    valid policy prices the whole group above ``k``.

    Returning the *index* (not the arrival time) lets callers identify the
    surviving entry even when several entries arrive at the identical time —
    a float-equality lookup would name the first tied entry, which may be a
    replica the adversary already killed.
    """
    if not arrivals:
        raise SchedulingError("replica group with no arrivals")
    spent = 0
    index = 0
    last = len(arrivals) - 1
    for _, kill_cost in arrivals:
        if index == last:
            break
        if spent + kill_cost > budget:
            break
        spent += kill_cost
        index += 1
    return index


def group_survivor_indices(
    arrivals: list[tuple],
    max_budget: int,
) -> list[int]:
    """Surviving-entry index for every budget ``0..max_budget`` in one pass.

    Entries are ``(arrival_time, kill_cost, ...)`` tuples sorted by arrival
    time; trailing elements (e.g. the sender id) are ignored.  Equivalent to
    ``[group_survivor_index(arrivals, c) for c in range(...)]`` but computed
    with a single walk over the (budget-monotone) kill prefix — this sits on
    the per-instance hot path of the list scheduler.
    """
    if not arrivals:
        raise SchedulingError("replica group with no arrivals")
    indices: list[int] = []
    spent = 0
    index = 0
    last = len(arrivals) - 1
    for budget in range(max_budget + 1):
        while index < last and spent + arrivals[index][1] <= budget:
            spent += arrivals[index][1]
            index += 1
        indices.append(index)
    return indices


def group_guaranteed_arrival(
    arrivals: list[tuple[float, int]],
    budget: int,
) -> float:
    """Guaranteed arrival of a replica group's data under ``budget`` kills.

    See :func:`group_survivor_index` for the adversary argument.
    """
    return arrivals[group_survivor_index(arrivals, budget)][0]


@dataclass(frozen=True, slots=True)
class PlacementResult:
    """Per-budget worst-case rows of a freshly placed instance.

    ``finish_row`` is retained verbatim as one row of the compact
    :class:`repro.schedule.record.ScheduleRecord`; ``dominant`` and
    ``dominant_budget`` feed the record's binding index triple, which is
    what the critical-path walk follows.
    """

    finish_row: tuple[float, ...]  # F(i, q): worst finish when it completes
    tail_row: tuple[float, ...]  # chain tail incl. the terminally-killed case
    #: Worst finish under q faults when NONE of them hits this instance's
    #: own recoveries (base release/chain delay + one clean execution).
    #: Receivers price fast-frame invalidation with it: delays through
    #: this row can be shared with sibling replicas (common upstream
    #: faults), while own-recovery delays are disjoint per sender.
    no_recovery_row: tuple[float, ...] = ()
    dominant: str = "input"  # what bounded F(i, k): "input" or "node"
    dominant_budget: int = 0  # the b = k - t at which the worst case occurred

    @property
    def root_finish(self) -> float:
        return self.finish_row[0]

    @property
    def wcf(self) -> float:
        """Worst-case finish over every scenario of at most k faults."""
        return self.finish_row[-1]


class WorstCaseAnalyzer:
    """Incremental per-node chain DP driven by the list scheduler."""

    def __init__(self, faults: FaultModel) -> None:
        self.faults = faults
        #: node -> tail row of the node's last placed instance.
        self.tails: dict[str, tuple[float, ...]] = {}

    def place(self, instance: Instance, rel_row: list[float]) -> PlacementResult:
        """Append ``instance`` to its node's chain and return its rows.

        ``rel_row[c]`` must be the guaranteed release time of the instance
        when the adversary spends ``c`` faults on its input replicas (it
        already includes the instance's release time).
        """
        k = self.faults.k
        mu = self.faults.mu
        if len(rel_row) != k + 1:
            raise SchedulingError(
                f"rel_row must have k+1={k + 1} entries, got {len(rel_row)}"
            )
        wcet = instance.wcet
        reexec = instance.reexecutions
        # Checkpointing extension: a re-execution re-runs one segment only.
        recovery = instance.recovery_unit
        prev = self.tails.get(instance.node)
        step = recovery + mu

        # Base release per budget: the later of the guaranteed input arrival
        # and the node chain's tail (hoisted out of the (q, t) double loop).
        if prev is None:
            base_row = rel_row
            input_row = [True] * (k + 1)
        else:
            base_row = []
            input_row = []
            for b in range(k + 1):
                rel = rel_row[b]
                chained = prev[b]
                if chained > rel:
                    base_row.append(chained)
                    input_row.append(False)
                else:
                    base_row.append(rel)
                    input_row.append(True)

        # F(q) maximizes over t in [0, min(q, reexec)] re-executions, i.e.
        # over budgets b = q - t walking down from q; ``extra`` accumulates
        # wcet + t * step without re-multiplying per iteration.
        finish_row: list[float] = []
        for q in range(k):
            tmax = q if q < reexec else reexec
            best = _NEG_INF
            extra = wcet
            for b in range(q, q - tmax - 1, -1):
                value = base_row[b] + extra
                if value > best:
                    best = value
                extra += step
            finish_row.append(best)
        tmax = k if k < reexec else reexec
        best = _NEG_INF
        extra = wcet
        dominant_budget = 0
        for b in range(k, k - tmax - 1, -1):
            value = base_row[b] + extra
            if value > best:
                best = value
                dominant_budget = b
            extra += step
        finish_row.append(best)
        dominant = "input" if input_row[dominant_budget] else "node"

        tail_row: list[float] = []
        kill_attempts = reexec + 1
        for q in range(k + 1):
            tail = finish_row[q]
            if q >= kill_attempts:
                killed = base_row[q - kill_attempts] + (wcet + mu) + reexec * step
                if killed > tail:
                    tail = killed
            tail_row.append(tail)

        result = PlacementResult(
            finish_row=tuple(finish_row),
            tail_row=tuple(tail_row),
            no_recovery_row=tuple(base + wcet for base in base_row),
            dominant=dominant,
            dominant_budget=dominant_budget,
        )
        self.tails[instance.node] = result.tail_row
        return result


def guaranteed_completion(
    replica_wcfs: list[tuple[float, int]],
    budget: int,
) -> float:
    """Guaranteed completion of a replicated process.

    ``replica_wcfs`` pairs each replica's worst-case finish with its kill
    cost.  The adversary again kills the earliest-finishing replicas first;
    the process is guaranteed complete when the earliest *surviving* replica
    has finished.  With pure replication on otherwise idle nodes this equals
    the root finish of the last replica (Fig. 2b); with a single re-executed
    replica it is that replica's WCF (Fig. 2a).
    """
    ordered = sorted(replica_wcfs)
    return group_guaranteed_arrival(ordered, budget)
