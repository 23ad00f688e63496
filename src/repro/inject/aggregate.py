"""Streaming aggregation of shard results.

The driver never materializes a scenario list: each acked shard folds
into running counters the moment it lands, in any order, and the final
aggregate is order-independent —

* **coverage** per fault-count stratum: scenarios enumerated (exhaustive
  strata) or i.i.d. draws taken (sampled strata) against the exact
  stratum size;
* **violation exemplars**: per violation class, the first failing
  scenario in the sweep's deterministic order ``(wave, stratum, shard
  lo, offset)`` — folding picks the minimum key, so a resumed sweep
  reports the same exemplar as an uninterrupted one.  Exemplars carry
  the failure map, replayable via ``SystemSimulator.from_record``;
* **residual violation bound**: per sampled stratum a one-sided
  Clopper–Pearson upper bound on the true violation fraction
  (:mod:`repro.inject.stats`), per exhaustive stratum the exact rate
  (uncovered scenarios count as potential violations until their shard
  lands), combined into one number weighted by stratum size.  The
  importance tier is *directed*, not uniform, so it reports its findings
  separately and never enters the probabilistic bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import SimulationError
from repro.inject.partition import (
    ShardSpec,
    TIER_EXHAUSTIVE,
    TIER_IMPORTANCE,
    TIER_STRATIFIED,
)
from repro.inject.plan import MODE_EXHAUSTIVE, MODE_SAMPLED, SamplingPlan
from repro.inject.stats import clopper_pearson_upper
from repro.io.codec import encode


@dataclass(frozen=True)
class Exemplar:
    """First failing scenario of one violation class."""

    order: tuple[int, int, int, int]  # (wave, stratum|-1, shard lo, offset)
    failures: dict[str, int]
    subject: str
    detail: str


@dataclass(frozen=True)
class PhaseSeconds:
    """Worker seconds one shard spent per phase.

    Their sum is at most the shard's ``elapsed_s``; the remainder is
    context/cache lookup overhead.
    """

    materialize: float = 0.0
    simulate: float = 0.0
    classify: float = 0.0
    fold: float = 0.0

    def __add__(self, other: PhaseSeconds) -> PhaseSeconds:
        return PhaseSeconds(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            )
        )


@dataclass
class ShardResult:
    """Everything one executed shard reports back (the queue's ack body)."""

    fingerprint: str
    spec: ShardSpec
    scenarios: int  # unique scenarios simulated
    draws: int  # Bernoulli trials (== scenarios except stratified dups)
    violation_draws: int
    violation_scenarios: int
    class_counts: dict[str, int] = field(default_factory=dict)
    exemplars: dict[str, Exemplar] = field(default_factory=dict)
    elapsed_s: float = 0.0
    phase_s: PhaseSeconds = field(default_factory=PhaseSeconds)

    def to_dict(self) -> dict[str, Any]:
        """The wire form (:func:`repro.io.codec.encode`)."""
        return encode(self)


@dataclass
class StratumCoverage:
    """Running counters of one fault-count stratum."""

    size: int
    mode: str  # MODE_EXHAUSTIVE / MODE_SAMPLED / MODE_NONE
    covered: int = 0  # scenarios enumerated (exhaustive)
    draws: int = 0  # trials taken (sampled)
    violation_draws: int = 0
    violation_scenarios: int = 0

    def upper_bound(self, alpha: float) -> float:
        """Upper bound on this stratum's true violation fraction."""
        if self.size == 0:
            return 0.0
        if self.mode == MODE_EXHAUSTIVE:
            # Uncovered scenarios stay pessimistic until their shard lands.
            return min(
                1.0,
                (self.violation_scenarios + (self.size - self.covered))
                / self.size,
            )
        if self.mode == MODE_SAMPLED:
            return clopper_pearson_upper(
                self.violation_draws, self.draws, alpha
            )
        return 1.0  # MODE_NONE: nothing is known about this stratum


@dataclass
class InjectAggregate:
    """Order-independent fold of shard results (the sweep's scoreboard)."""

    plan: SamplingPlan
    alpha: float = 0.05
    shards_folded: int = 0
    scenarios: int = 0
    draws: int = 0
    violation_draws: int = 0
    violation_scenarios: int = 0
    elapsed_s: float = 0.0  # summed worker compute time
    phase_s: PhaseSeconds = field(default_factory=PhaseSeconds)
    importance_scenarios: int = 0
    importance_violations: int = 0
    strata: dict[int, StratumCoverage] = field(default_factory=dict)
    class_counts: dict[str, int] = field(default_factory=dict)
    exemplars: dict[str, Exemplar] = field(default_factory=dict)
    _seen: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.strata:
            self.strata = {
                t: StratumCoverage(size=size, mode=self.plan.modes[t])
                for t, size in enumerate(self.plan.stratum_sizes)
            }

    # -- folding -----------------------------------------------------------

    def fold(self, result: ShardResult) -> None:
        """Fold one shard exactly once (re-folds are rejected).

        A result must account for its shard's whole scenario budget: a
        worker's result arrives through the broker as outside input, and
        a short count would be folded as coverage nobody simulated.
        """
        if result.fingerprint in self._seen:
            raise SimulationError(
                f"shard {result.fingerprint[:12]} folded twice"
            )
        spec = result.spec
        if result.draws != spec.scenario_budget:
            raise SimulationError(
                f"shard {spec.describe()} reports {result.draws} draws, "
                f"its budget is {spec.scenario_budget}"
            )
        self._seen.add(result.fingerprint)
        self.shards_folded += 1
        self.scenarios += result.scenarios
        self.draws += result.draws
        self.violation_draws += result.violation_draws
        self.violation_scenarios += result.violation_scenarios
        self.elapsed_s += result.elapsed_s
        self.phase_s += result.phase_s

        if spec.tier == TIER_IMPORTANCE:
            self.importance_scenarios += result.scenarios
            self.importance_violations += result.violation_scenarios
        else:
            stratum = self.strata[spec.stratum]
            if spec.tier == TIER_EXHAUSTIVE:
                stratum.covered += result.scenarios
            elif spec.tier == TIER_STRATIFIED:
                stratum.draws += result.draws
            stratum.violation_draws += result.violation_draws
            stratum.violation_scenarios += result.violation_scenarios

        for name, count in result.class_counts.items():
            self.class_counts[name] = self.class_counts.get(name, 0) + count
        for name, exemplar in result.exemplars.items():
            current = self.exemplars.get(name)
            if current is None or exemplar.order < current.order:
                self.exemplars[name] = exemplar

    # -- derived reporting -------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.violation_scenarios == 0 and self.importance_violations == 0

    @property
    def complete(self) -> bool:
        return self.shards_folded == len(self.plan.shards)

    def residual_upper_bound(self) -> float:
        """Upper bound on P[violation] for a uniform random ≤k scenario.

        Stratum bounds weighted by exact stratum sizes; the importance
        tier is excluded (directed, not uniform).  1.0 when nothing has
        been covered yet, the exact violation fraction once every
        stratum is exhaustively enumerated.
        """
        total = self.plan.space_size
        if total == 0:
            return 0.0
        weighted = 0.0
        for stratum in self.strata.values():
            weighted += stratum.size * stratum.upper_bound(self.alpha)
        return min(1.0, weighted / total)

    def scenarios_per_sec(self) -> float:
        return self.scenarios / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def publish_metrics(self, registry=None) -> None:
        """Mirror the folded totals into ``inject.*`` gauges.

        Gauges (not counters): the aggregate is already a sum over
        shards, and re-publishing after more folds should overwrite, not
        double-count.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        registry.set("inject.shards_folded", self.shards_folded)
        registry.set("inject.scenarios", self.scenarios)
        registry.set("inject.draws", self.draws)
        registry.set("inject.violation_scenarios", self.violation_scenarios)
        registry.set("inject.residual_upper_bound", self.residual_upper_bound())
        registry.set("inject.scenarios_per_sec", self.scenarios_per_sec())

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (drives reporting and the bench artifact)."""
        return {
            "ok": self.ok,
            "complete": self.complete,
            "shards": self.shards_folded,
            "shards_planned": len(self.plan.shards),
            "scenarios": self.scenarios,
            "draws": self.draws,
            "violation_scenarios": self.violation_scenarios,
            "violation_draws": self.violation_draws,
            "importance": {
                "scenarios": self.importance_scenarios,
                "violations": self.importance_violations,
            },
            "strata": {
                str(t): {
                    "size": s.size,
                    "mode": s.mode,
                    "covered": s.covered,
                    "draws": s.draws,
                    "violations": s.violation_scenarios,
                    "upper_bound": s.upper_bound(self.alpha),
                }
                for t, s in sorted(self.strata.items())
            },
            "residual_upper_bound": self.residual_upper_bound(),
            "alpha": self.alpha,
            "elapsed_s": self.elapsed_s,
            "phase_s": encode(self.phase_s),
            "scenarios_per_sec": self.scenarios_per_sec(),
            "class_counts": dict(sorted(self.class_counts.items())),
            "exemplars": {
                name: encode(exemplar)
                for name, exemplar in sorted(self.exemplars.items())
            },
        }
