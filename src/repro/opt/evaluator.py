"""Candidate evaluation: schedule an implementation and price it.

This is the optimizer's one evaluation surface.  Every cost it returns is
exact: equal, bit for bit, to the cost of a cold list-scheduling pass of
the design.

* :meth:`Evaluator.evaluate_record` — canonical single-candidate path:
  ``(Cost, ScheduleRecord)`` from one cold list-scheduling pass, LRU-cached
  by the implementation's canonical signature.
* :meth:`Evaluator.evaluate_many` — the search hot path: a whole
  neighbourhood of single-process moves priced against one shared
  :class:`~repro.schedule.incremental.EvalContext` (:meth:`context_for`)
  via delta re-scheduling.  Pricing streams: each cache miss is planned,
  replayed and priced *without sealing a record*
  (:meth:`~repro.schedule.state.SchedulerState.cost_view`) before the next
  is planned, and only its cost is kept, so no overlay graph or scheduler
  state outlives its own pricing.  The caller derives a record only for
  the candidate it actually follows, via :meth:`realize`.
* :meth:`Evaluator.evaluate_full` — the materialized
  :class:`~repro.schedule.table.SystemSchedule` view for validation,
  rendering and final results.  It always runs or rebinds a *cold* full
  pass, the reference the delta parity suite checks delta records
  against byte for byte.

Caching: results are cached by design signature in a bounded LRU
(``cache_size=0`` disables it).  A candidate's signature is derived from
its base's: only the moved process's entry is rebuilt
(:meth:`~repro.opt.implementation.Implementation.moved_signature`), so
every key shares its other entries with the base and equals the
candidate's own signature.  An entry holds the cost and, when one was ever
sealed, the compact schedule record; delta-priced entries start
record-less and are filled in on first :meth:`realize`.  Cost parity
between delta and full passes is exact (see ``cost_view``), so a cache
entry's cost never depends on which pass priced it.

Counters: ``evaluations`` counts *pricings of designs not served by the
cache* and always equals ``full_evaluations + delta_evaluations``.
:meth:`realize` moves no counter: its record is the one the followed
design's context capture seals, which the search needs for the next
neighbourhood anyway.  A view request hitting a record-less entry
rebuilds the record cold; that is materialization, not evaluation, and is
counted in ``record_rebuilds``.  :meth:`cache_info` and
:meth:`publish_metrics` report them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, build_ft_graph
from repro.opt.cost import Cost
from repro.opt.implementation import Implementation
from repro.opt.moves import Move
from repro.schedule.incremental import EvalContext
from repro.schedule.list_scheduler import build_schedule_record
from repro.schedule.record import ScheduleRecord
from repro.schedule.table import SystemSchedule

#: Default bound of the LRU schedule cache.  A cached entry is a compact
#: :class:`ScheduleRecord` — flat tuples, no reference cycles — so unlike
#: the object-graph caching of PR 1 (where 256 entries was the measured
#: optimum before cyclic-GC re-scan cost ate the extra hits), retention is
#: almost free and the bound is set by hit-rate saturation instead.  The
#: cache-scaling benchmark (``benchmarks/test_cache_scaling.py``, written
#: to ``BENCH_cache.json``) re-measured the 20-process MXR strategy run at
#: 64/256/1024/4096 entries: wall-clock is flat across the whole range
#: while the hit rate keeps growing (long-distance revisits across search
#: rounds), so the bound moved from 256 to 4096 — a 16x larger cache at
#: equal wall-clock.  See DESIGN.md.
DEFAULT_CACHE_SIZE = 4096

#: Bound of the base-context LRU of :meth:`Evaluator.context_for`.
#: The search advances one base per iteration, but tabu oscillation can
#: bounce between a couple of recent bases; a context holds its record
#: plus the base FT graph, priorities, trace and read sets, so the bound
#: is deliberately tiny.
DEFAULT_CONTEXT_CACHE_SIZE = 4


class CacheInfo(NamedTuple):
    """Cache statistics à la ``functools.lru_cache``."""

    hits: int
    misses: int
    size: int  # entries currently retained
    bound: int  # maximum entries (LRU capacity)


@dataclass(slots=True)
class CandidateEval:
    """One priced neighbourhood candidate (see :meth:`Evaluator.evaluate_many`).

    The cost is final; the schedule record is deliberately *not* — it is
    derived only when :meth:`Evaluator.realize` is called for the (usually
    single) candidate the search follows.  ``_record`` is set when the
    record already exists (a cache hit) or was realized.  A candidate
    holds no scheduler state: a fresh pricing keeps only its cost.
    """

    move: Move
    implementation: Implementation
    cost: Cost
    _signature: tuple
    _record: ScheduleRecord | None = None


class Evaluator:
    """Schedules candidate implementations of one merged graph."""

    def __init__(
        self,
        merged: ProcessGraph,
        faults: FaultModel,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.merged = merged
        self.faults = faults
        self.evaluations = 0
        self.full_evaluations = 0
        self.delta_evaluations = 0
        self.record_rebuilds = 0
        self.cache_hits = 0
        self._cache_size = cache_size
        # Entry layout: [Cost, ScheduleRecord | None] — a mutable pair so
        # realize() can fill the record into an existing entry in place.
        self._cache: OrderedDict[tuple, list] = OrderedDict()
        self._contexts: OrderedDict[tuple, EvalContext] = OrderedDict()
        self._published: dict[str, int] = {}

    # -- canonical single-candidate path ------------------------------------

    def evaluate_record(
        self, implementation: Implementation
    ) -> tuple[Cost, ScheduleRecord]:
        """Cost and compact schedule IR of ``implementation`` (one pass)."""
        cost, record, _ = self._evaluate(implementation)
        return cost, record

    def _evaluate(self, implementation: Implementation):
        """Core full-pass pipeline; also returns the FT graph when expanded.

        The third element is ``None`` on a cache hit — view-materializing
        callers rebuild it then, but a miss hands its FT graph on so the
        expansion is never done twice for one request.
        """
        signature = implementation.signature()
        entry = self._lookup(signature)
        if entry is not None:
            if entry[1] is None:
                # Delta-priced entry that was never sealed: the cost is
                # final, only the record is materialized (and memoized) now.
                entry[1] = self._rebuild_record(implementation)
            return entry[0], entry[1], None
        self.evaluations += 1
        self.full_evaluations += 1
        ft = self._ft_graph(implementation)
        record = build_schedule_record(
            self.merged, ft, self.faults, implementation.bus
        )
        cost = _cost(record.degree_of_schedulability(), record.makespan)
        self._store(signature, [cost, record])
        return cost, record, ft

    def _ft_graph(self, implementation: Implementation) -> FTGraph:
        return build_ft_graph(
            self.merged,
            implementation.policies,
            implementation.mapping,
            self.faults,
        )

    def _rebuild_record(self, implementation: Implementation) -> ScheduleRecord:
        """Cold record for an already-priced design (not an evaluation)."""
        self.record_rebuilds += 1
        return build_schedule_record(
            self.merged,
            self._ft_graph(implementation),
            self.faults,
            implementation.bus,
        )

    def _lookup(self, signature: tuple) -> list | None:
        """The cache entry of ``signature``, counted as a hit when present."""
        entry = self._cache.get(signature)
        if entry is not None:
            self._cache.move_to_end(signature)
            self.cache_hits += 1
        return entry

    def _store(self, signature: tuple, entry: list) -> None:
        cache = self._cache
        cache[signature] = entry
        if len(cache) > self._cache_size:
            cache.popitem(last=False)

    # -- delta tier ---------------------------------------------------------

    def context_for(self, implementation: Implementation) -> EvalContext:
        """The captured base context of ``implementation`` (LRU-cached).

        Capturing runs one traced cold schedule (the sealed record is
        byte-identical to an untraced pass); the cost amortizes over every
        move priced against the base.
        """
        signature = implementation.signature()
        contexts = self._contexts
        context = contexts.get(signature)
        if context is None:
            context = EvalContext.capture(
                self.merged,
                self._ft_graph(implementation),
                self.faults,
                implementation.bus,
            )
            contexts[signature] = context
            if len(contexts) > DEFAULT_CONTEXT_CACHE_SIZE:
                contexts.popitem(last=False)
            if signature not in self._cache:
                # The capture pass produced the base's sealed record anyway;
                # keep it (a side effect of capturing, not a priced
                # evaluation request, so no counter moves).
                record = context.record
                self._store(
                    signature,
                    [
                        _cost(record.degree_of_schedulability(), record.makespan),
                        record,
                    ],
                )
        else:
            contexts.move_to_end(signature)
        return context

    def evaluate_many(
        self, base: Implementation, moves: Iterable[Move]
    ) -> list[CandidateEval]:
        """Price a whole neighbourhood of ``base`` (the search hot path).

        One :class:`EvalContext` capture of ``base`` is shared by every
        move.  Every move is looked up in the cache first, in order; then
        each miss is planned (:meth:`EvalContext.plan_moves`, one plan at a
        time), delta-replayed and priced *without* sealing before the next
        miss is planned.  The order of the result matches ``moves``.
        """
        moves = list(moves)
        context = self.context_for(base)
        base_signature = base.signature()
        results: list[CandidateEval | None] = [None] * len(moves)
        pending: list[tuple[int, Implementation, tuple]] = []
        for index, move in enumerate(moves):
            candidate = move.apply(base)
            signature = candidate.moved_signature(base_signature, move.process)
            entry = self._lookup(signature)
            if entry is not None:
                results[index] = CandidateEval(
                    move, candidate, entry[0], signature, entry[1]
                )
            else:
                pending.append((index, candidate, signature))
        plans = context.plan_moves(
            (candidate.policies, candidate.mapping, moves[index].process)
            for index, candidate, _ in pending
        )
        for index, candidate, signature in pending:
            move = moves[index]
            # Each plan is drawn inside its own pricing and dies with it.
            cost = _price(context, candidate, move.process, next(plans))
            self.evaluations += 1
            self.delta_evaluations += 1
            self._store(signature, [cost, None])
            results[index] = CandidateEval(move, candidate, cost, signature)
        return results

    def realize(self, candidate: CandidateEval) -> ScheduleRecord:
        """The schedule record behind a priced candidate.

        A cache hit's record is returned as is.  A candidate without one
        gets the record of its own captured context (:meth:`context_for`):
        the search prices its next neighbourhood against that context, so
        the traced cold pass it runs is the only pass the followed design
        costs, and its record is byte-identical to sealing the delta
        replay.  Neither ``evaluations`` nor ``record_rebuilds`` moves;
        the record is memoized on the candidate and in its cache entry.
        """
        record = candidate._record
        if record is None:
            record = self.context_for(candidate.implementation).record
            candidate._record = record
            entry = self._cache.get(candidate._signature)
            if entry is not None:
                entry[1] = record
            else:
                self._store(candidate._signature, [candidate.cost, record])
        return record

    # -- materialized views (golden-parity reference) -----------------------

    def evaluate_full(
        self, implementation: Implementation
    ) -> tuple[Cost, SystemSchedule]:
        """Cost and materialized schedule view of ``implementation``.

        Always a *cold* full pass (or the cached record of one): this is
        the golden-parity reference the delta tier is checked against.  On
        a cache hit the record is rebound to a freshly expanded FT graph —
        a few percent of a scheduling pass — so only callers that actually
        render, simulate or hand the schedule on pay for views.
        """
        cost, record, ft = self._evaluate(implementation)
        if ft is None:
            ft = self._ft_graph(implementation)
        return cost, SystemSchedule.from_record(
            record, self.merged, ft, self.faults, implementation.bus
        )

    # -- statistics ----------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hits, misses, current size and bound of the evaluation cache."""
        return CacheInfo(
            hits=self.cache_hits,
            misses=self.evaluations,
            size=len(self._cache),
            bound=self._cache_size,
        )

    def publish_metrics(self, registry=None) -> None:
        """Publish counter deltas since the last publish into the registry.

        Deltas (not absolutes) so several evaluators in one process — one
        per root-schedule alternative under ``optimize`` — accumulate
        rather than overwrite.  Gauges describe *this* evaluator's cache;
        ``evaluator.cache.hit_rate`` is the fraction of evaluation
        requests it served.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        published = self._published
        current = {
            "evaluator.cache_hits": self.cache_hits,
            "evaluator.exact_evaluations": (
                self.full_evaluations + self.delta_evaluations
            ),
            "evaluator.full_evaluations": self.full_evaluations,
            "evaluator.delta_evaluations": self.delta_evaluations,
            "evaluator.record_rebuilds": self.record_rebuilds,
        }
        for name, value in current.items():
            previous = published.get(name, 0)
            if value > previous:
                registry.inc(name, value - previous)
        self._published = current
        info = self.cache_info()
        requests = info.hits + info.misses
        registry.set("evaluator.cache.size", info.size)
        registry.set("evaluator.cache.bound", info.bound)
        registry.set(
            "evaluator.cache.hit_rate",
            info.hits / requests if requests else 0.0,
        )


def _price(
    context: EvalContext,
    candidate: Implementation,
    process: str,
    plan: tuple,
) -> Cost:
    """Cost of one planned move; its replayed state dies on return."""
    state = context.delta_schedule(
        candidate.policies, candidate.mapping, process, plan=plan
    )
    return _cost(*state.cost_view())


def _cost(degree: float, makespan: float) -> Cost:
    """The cost of a schedule with this deadline overshoot and length."""
    return Cost(schedulable=degree == 0.0, degree=degree, makespan=makespan)
