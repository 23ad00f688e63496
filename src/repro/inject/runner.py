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

One trial walk serves both replay kernels.  A shard's trials are
``(keys, draws, offsets)``: the index range of an exhaustive shard, the
distinct draws of a stratified shard with their multiplicities and
first-draw offsets, or a slice of the importance list.  One block loop
(``batch_size`` trials per block, the whole shard when it is 0) counts
scenarios and draws and folds violations.  Only two steps depend on the
kernel:

* **materialization** — the batched kernel builds one int64 count
  matrix per block with no per-scenario Python loop
  (:meth:`~repro.inject.space.ScenarioSpace.counts_range`,
  ``sample_counts``, ``counts_matrix``); the scalar reference builds
  :class:`~repro.sim.faults.FaultScenario` objects through the scalar
  ``iter_range`` / ``unrank``;
* **replay** — one :meth:`~repro.sim.batch.BatchSimulator.run_batch`
  call per block, reduced to violation masks by
  :class:`~repro.sim.validate.BatchChecker`, with only the *violating*
  columns re-run through the scalar
  :func:`~repro.sim.validate.check_scenario` (the single classification
  point); the scalar reference runs ``check_scenario`` per scenario.

So violation counts, messages and exemplar orders are byte-identical
between the kernels, and ``batch_size=0`` is the reference the batched
kernel is tested against.

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
#: cache-resident (``run_shard(..., batch_size=0)`` is the scalar
#: reference).
DEFAULT_BATCH_SIZE = 1024


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
        _replay_trials(context, spec, result, stratum_key, batch_size, phases)
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


# -- one trial walk, two kernels ---------------------------------------------


def _stratified_trials(space: ScenarioSpace, spec: ShardSpec):
    """Distinct draw indices, their multiplicities and first-draw offsets.

    Both kernels derive the same RNG stream from the shard's coordinate
    label; the lists are in first-draw order.
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
    distinct = list(first_offset)
    return (
        distinct,
        [multiplicity[index] for index in distinct],
        list(first_offset.values()),
    )


def _trials(context: InjectContext, spec: ShardSpec):
    """The shard's trials in shard order, as ``(keys, draws, offsets)``.

    A key is what materialization turns into one scenario: a stratum
    index (exhaustive and stratified tiers) or an importance scenario.
    ``draws[i]`` counts the draws of key ``i`` and ``offsets[i]`` is the
    shard offset of its first draw.
    """
    if spec.tier == TIER_EXHAUSTIVE:
        keys = range(spec.lo, spec.hi)
        return keys, [1] * len(keys), range(len(keys))
    if spec.tier == TIER_STRATIFIED:
        return _stratified_trials(context.space, spec)
    if spec.tier == TIER_IMPORTANCE:
        ranked = context.importance
        if spec.hi > len(ranked):
            raise SimulationError(
                f"importance shard [{spec.lo}, {spec.hi}) exceeds the "
                f"{len(ranked)}-scenario importance list (planner and "
                "worker disagree on the target)"
            )
        keys = ranked[spec.lo:spec.hi]
        return keys, [1] * len(keys), range(len(keys))
    raise SimulationError(  # pragma: no cover - ShardSpec validates tiers
        f"unknown shard tier {spec.tier!r}"
    )


def _materialize(context: InjectContext, spec: ShardSpec, keys, batched: bool):
    """One block of keys as the kernel's input.

    The batched kernel takes one int64 count matrix (``counts_range``,
    ``sample_counts`` or ``counts_matrix``); the scalar reference takes
    :class:`FaultScenario` objects from the scalar ``iter_range`` /
    ``unrank`` or the importance list itself.
    """
    space = context.space
    if spec.tier == TIER_IMPORTANCE:
        return space.counts_matrix(keys) if batched else keys
    if spec.tier == TIER_EXHAUSTIVE:
        if batched:
            return space.counts_range(spec.stratum, keys.start, keys.stop)
        counts = space.iter_range(spec.stratum, keys.start, keys.stop)
    elif batched:
        return space.sample_counts(spec.stratum, keys)
    else:
        counts = (space.unrank(spec.stratum, index) for index in keys)
    return [space.scenario(vector) for vector in counts]


def _violations(
    context: InjectContext, block, batched: bool, phases: MetricsRegistry
):
    """Yield ``(j, scenario, violations)`` for each violating trial ``j``.

    The scalar reference runs :func:`check_scenario` on every scenario.
    The batched kernel replays the whole count matrix in one
    ``run_batch`` call, reduces it to violation masks with the
    :class:`~repro.sim.validate.BatchChecker`, and re-runs only the
    violating columns through :func:`check_scenario` — the single
    classification point — so messages match the scalar path.
    """
    simulator = context.simulator
    if not batched:
        for j, scenario in enumerate(block):
            with phases.timer("simulate"):
                violations = check_scenario(simulator, scenario)
            if violations:
                yield j, scenario, violations
        return
    space = context.space
    with phases.timer("simulate"):
        replay = context.batch.run_batch(block, ids=space.ids)
    with phases.timer("classify"):
        columns = context.checker.check(replay).violating_columns()
    for j in columns:
        scenario = space.scenario(block[:, j])
        with phases.timer("classify"):
            violations = check_scenario(simulator, scenario)
        if violations:  # pragma: no branch - masks mirror the scalar
            yield int(j), scenario, violations


def _replay_trials(
    context: InjectContext,
    spec: ShardSpec,
    result: ShardResult,
    stratum_key: int,
    batch_size: int,
    phases: MetricsRegistry,
) -> None:
    """Walk the shard's trials block by block and fold the violations.

    Blocks hold ``batch_size`` trials (the whole shard for the scalar
    reference, ``batch_size`` 0).  Stratified shards simulate each
    *distinct* drawn scenario once but count violations per draw: the
    draws are the i.i.d. Bernoulli trials the Clopper–Pearson bound
    needs, the dedup is just compute savings.
    """
    with phases.timer("materialize"):
        keys, draws, offsets = _trials(context, spec)
    batched = bool(batch_size)
    step = batch_size or len(keys) or 1
    for lo in range(0, len(keys), step):
        chunk = keys[lo:lo + step]
        with phases.timer("materialize"):
            block = _materialize(context, spec, chunk, batched)
        result.scenarios += len(chunk)
        result.draws += sum(draws[lo:lo + step])
        for j, scenario, violations in _violations(
            context, block, batched, phases
        ):
            with phases.timer("fold"):
                _fold_violations(
                    result, violations, scenario, draws[lo + j],
                    offsets[lo + j], spec, stratum_key,
                )
