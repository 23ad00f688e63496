"""Shard execution: materialize, simulate, classify, summarize.

A shard never travels with scenarios — only coordinates.  The runner
re-materializes them locally (an index range for exhaustive shards,
seeded RNG draws for stratified shards, the deterministic importance
list for wave 0) and replays them through the target's cached
**batched** simulator.  Everything derived from the target — replay
context, scenario space, importance list — lives on one
:class:`~repro.inject.target.InjectContext`, cached per target
fingerprint by :func:`~repro.inject.target.cached_context`, so a worker
draining a sweep derives each once, not once per shard.

Each block of ``batch_size`` scenarios is built array-native as one
int64 count matrix: range and draw indices go through
:meth:`~repro.inject.space.ScenarioSpace.counts_range` /
``sample_counts``, one numpy unrank walk per block with no per-scenario
Python loop, and importance scenarios through ``counts_matrix``.  One
:meth:`~repro.sim.batch.BatchSimulator.run_batch` call replays every
column at once, and
:class:`~repro.sim.validate.BatchChecker` reduces the block to per-kind
violation masks.  Only *violating* columns are re-materialized as
:class:`FaultScenario` objects and re-run through the scalar
:func:`~repro.sim.validate.check_scenario` — the single classification
point — so violation counts, messages and exemplar orders are
byte-identical to a scalar sweep.  ``batch_size=0`` falls back to the
pure scalar path (scalar ``unrank`` / ``iter_range``, the reference the
batch tier is tested against).

Stratified shards simulate each *distinct* drawn scenario once but count
violations per draw: the draws are the i.i.d. Bernoulli trials the
Clopper–Pearson bound needs, the dedup is just compute savings.

Each shard reports per-phase seconds (materialize / simulate / classify
/ fold) next to its wall-clock, so batch-path wins stay observable per
shard through ``ftds inject --json`` and the queue progress lines.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro import obs
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.inject.aggregate import Exemplar, PhaseSeconds, ShardResult
from repro.inject.partition import (
    ShardSpec,
    TIER_EXHAUSTIVE,
    TIER_IMPORTANCE,
    TIER_STRATIFIED,
    shard_fingerprint,
)
from repro.inject.space import ScenarioSpace
from repro.inject.target import InjectContext, InjectTarget, cached_context
from repro.sim.faults import FaultScenario
from repro.sim.validate import check_scenario

#: Columns per ``run_batch`` call.  Wide enough to amortize the numpy
#: dispatch across a shard, small enough that a block's arrays stay
#: cache-resident (`ftds inject --batch-size` overrides; 0 = scalar).
DEFAULT_BATCH_SIZE = 1024


def _importance_slice(context: InjectContext,
                      spec: ShardSpec) -> list[FaultScenario]:
    ranked = context.importance
    if spec.hi > len(ranked):
        raise SimulationError(
            f"importance shard [{spec.lo}, {spec.hi}) exceeds the "
            f"{len(ranked)}-scenario importance list (planner and "
            "worker disagree on the target)"
        )
    return ranked[spec.lo:spec.hi]


def run_shard(
    target: InjectTarget,
    spec: ShardSpec,
    target_fp: str | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ShardResult:
    """Execute one shard against its target and summarize the outcome.

    The target's replay context comes from the worker-side cache
    (:func:`~repro.inject.target.cached_context`); see
    :func:`replay_shard` for ``batch_size``.
    """
    fingerprint = target_fp or target.fingerprint()
    context = cached_context(fingerprint, target.build_context)
    return replay_shard(context, spec, fingerprint, batch_size)


def replay_shard(
    context: InjectContext,
    spec: ShardSpec,
    target_fp: str,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ShardResult:
    """Execute one shard against its target's replay context.

    ``batch_size`` columns flow through the batched replay kernel per
    block; ``0`` (or ``None``) replays scenario-by-scenario through the
    scalar simulator instead.  Both paths produce byte-identical
    results — the batch tier is the throughput engine, the scalar tier
    the reference and exemplar replay fallback.  A negative
    ``batch_size`` raises :class:`SimulationError`.
    """
    if batch_size is not None and batch_size < 0:
        raise SimulationError(f"batch size must be >= 0, got {batch_size}")
    started = time.perf_counter()
    result = ShardResult(
        fingerprint=shard_fingerprint(target_fp, spec),
        spec=spec,
        scenarios=0,
        draws=0,
        violation_draws=0,
        violation_scenarios=0,
    )
    stratum_key = spec.stratum if spec.stratum is not None else -1
    # Phase seconds accumulate in a shard-local registry (one timer block
    # per phase), are copied into the ShardResult's wire field and folded
    # into the process registry under ``inject.phase.*`` /
    # ``inject.tier.*`` for traces and exports.
    phases = MetricsRegistry()
    with obs.span(
        "shard", tier=spec.tier, stratum=stratum_key, lo=spec.lo, hi=spec.hi
    ) as sp:
        if batch_size:
            _run_shard_batched(
                context, spec, result, stratum_key, batch_size, phases
            )
        else:
            _run_shard_scalar(context, spec, result, stratum_key, phases)
        sp.set(scenarios=result.scenarios, draws=result.draws)
    result.phase_s = PhaseSeconds(
        materialize=phases.value("materialize_s"),
        simulate=phases.value("simulate_s"),
        classify=phases.value("classify_s"),
        fold=phases.value("fold_s"),
    )
    result.elapsed_s = time.perf_counter() - started
    registry = obs.get_registry()
    registry.merge(phases, prefix="inject.phase.")
    registry.inc(f"inject.tier.{spec.tier}.scenarios", result.scenarios)
    registry.inc(f"inject.tier.{spec.tier}.elapsed_s", result.elapsed_s)
    registry.inc("inject.shards")
    return result


# -- shared fold -------------------------------------------------------------


def _fold_violations(
    result: ShardResult,
    violations,
    scenario: FaultScenario,
    draws: int,
    offset: int,
    spec: ShardSpec,
    stratum_key: int,
) -> None:
    """Fold one violating scenario's classified violations (both paths)."""
    result.violation_scenarios += 1
    result.violation_draws += draws
    order = (spec.wave, stratum_key, spec.lo, offset)
    for violation in violations:
        result.class_counts[violation.kind] = (
            result.class_counts.get(violation.kind, 0) + 1
        )
        current = result.exemplars.get(violation.kind)
        if current is None or order < current.order:
            result.exemplars[violation.kind] = Exemplar(
                order=order,
                # Sorted like a decoded exemplar's, so inline and queued
                # reports list the failures alike.
                failures=dict(sorted(scenario.failures.items())),
                subject=violation.subject,
                detail=violation.detail,
            )


def _stratified_trials(space: ScenarioSpace, spec: ShardSpec):
    """Distinct draw indices with multiplicities, in first-draw order.

    Returns ``(distinct, multiplicity, first_offset)`` — the exact
    dedup the scalar path performs, shared so both paths derive the same
    RNG stream from the shard's coordinate label.
    """
    size = space.stratum_size(spec.stratum)
    rng = random.Random(spec.rng_label())
    first_offset: dict[int, int] = {}
    multiplicity: Counter[int] = Counter()
    for offset in range(spec.draws):
        index = rng.randrange(size)
        multiplicity[index] += 1
        first_offset.setdefault(index, offset)
    # Insertion order is first-draw order.
    return list(first_offset), multiplicity, first_offset


# -- scalar reference path ---------------------------------------------------


def _run_shard_scalar(
    context: InjectContext,
    spec: ShardSpec,
    result: ShardResult,
    stratum_key: int,
    phases: MetricsRegistry,
) -> None:
    # (scenario, draw multiplicity, offset of first draw) in shard order.
    trials: list[tuple[FaultScenario, int, int]]
    with phases.timer("materialize"):
        if spec.tier == TIER_EXHAUSTIVE:
            space = context.space
            trials = [
                (space.scenario(counts), 1, offset)
                for offset, counts in enumerate(
                    space.iter_range(spec.stratum, spec.lo, spec.hi)
                )
            ]
        elif spec.tier == TIER_STRATIFIED:
            space = context.space
            distinct, multiplicity, first_offset = _stratified_trials(
                space, spec
            )
            trials = [
                (
                    space.scenario(space.unrank(spec.stratum, index)),
                    multiplicity[index],
                    first_offset[index],
                )
                for index in distinct
            ]
        elif spec.tier == TIER_IMPORTANCE:
            trials = [
                (scenario, 1, offset)
                for offset, scenario in enumerate(
                    _importance_slice(context, spec)
                )
            ]
        else:  # pragma: no cover - ShardSpec validates tiers
            raise SimulationError(f"unknown shard tier {spec.tier!r}")

    for scenario, draws, offset in trials:
        result.scenarios += 1
        result.draws += draws
        with phases.timer("simulate"):
            violations = check_scenario(context.simulator, scenario)
        if not violations:
            continue
        with phases.timer("fold"):
            _fold_violations(
                result, violations, scenario, draws, offset, spec, stratum_key
            )


# -- batched hot path --------------------------------------------------------


def _run_shard_batched(
    context: InjectContext,
    spec: ShardSpec,
    result: ShardResult,
    stratum_key: int,
    batch_size: int,
    phases: MetricsRegistry,
) -> None:
    """Stream the shard through the columnar kernel, block by block.

    Per block: one array-native materialization of the block's count
    matrix (``counts_range`` over an index range, ``sample_counts`` over
    the distinct draws, ``counts_matrix`` over importance scenarios),
    one ``run_batch`` call, one ``BatchChecker`` pass, then scalar
    re-classification of the (rare) violating columns so messages and
    exemplar orders match the scalar path exactly.
    """
    space = context.space
    batch = context.batch
    checker = context.checker
    ids = space.ids

    def replay_block(matrix, describe_column):
        """(matrix → masks → scalar re-check of violators) for one block."""
        with phases.timer("simulate"):
            replay = batch.run_batch(matrix, ids=ids)
        with phases.timer("classify"):
            report = checker.check(replay)
            columns = report.violating_columns()
        for j in columns:
            scenario, draws, offset = describe_column(int(j))
            with phases.timer("classify"):
                violations = check_scenario(context.simulator, scenario)
            if not violations:  # pragma: no cover - masks mirror the scalar
                continue
            with phases.timer("fold"):
                _fold_violations(
                    result, violations, scenario, draws, offset, spec,
                    stratum_key,
                )

    if spec.tier == TIER_EXHAUSTIVE:
        for lo in range(spec.lo, spec.hi, batch_size):
            hi = min(lo + batch_size, spec.hi)
            with phases.timer("materialize"):
                matrix = space.counts_range(spec.stratum, lo, hi)
            result.scenarios += hi - lo
            result.draws += hi - lo
            replay_block(
                matrix,
                lambda j, lo=lo, matrix=matrix: (
                    space.scenario(matrix[:, j]), 1, lo - spec.lo + j
                ),
            )
    elif spec.tier == TIER_STRATIFIED:
        with phases.timer("materialize"):
            distinct, multiplicity, first_offset = _stratified_trials(
                space, spec
            )
        for lo in range(0, len(distinct), batch_size):
            chunk = distinct[lo:lo + batch_size]
            with phases.timer("materialize"):
                matrix = space.sample_counts(spec.stratum, chunk)
            result.scenarios += len(chunk)
            result.draws += sum(multiplicity[index] for index in chunk)
            replay_block(
                matrix,
                lambda j, chunk=chunk, matrix=matrix: (
                    space.scenario(matrix[:, j]),
                    multiplicity[chunk[j]],
                    first_offset[chunk[j]],
                ),
            )
    elif spec.tier == TIER_IMPORTANCE:
        with phases.timer("materialize"):
            ranked = _importance_slice(context, spec)
        for lo in range(0, len(ranked), batch_size):
            chunk = ranked[lo:lo + batch_size]
            with phases.timer("materialize"):
                matrix = space.counts_matrix(chunk)
            result.scenarios += len(chunk)
            result.draws += len(chunk)
            replay_block(
                matrix,
                lambda j, lo=lo, chunk=chunk: (chunk[j], 1, lo + j),
            )
    else:  # pragma: no cover - ShardSpec validates tiers
        raise SimulationError(f"unknown shard tier {spec.tier!r}")
