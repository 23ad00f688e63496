"""Deterministic sharding of the scenario space.

A shard is a self-describing coordinate into the scenario space of one
injection target: ``(tier, wave, stratum, lo, hi, draws, seed)``.  Two
processes that agree on the target agree on every shard's scenario set —
the shard never carries scenarios, only coordinates — so shards can be
re-materialized anywhere (a worker on another machine, a resumed driver)
and always replay identically.

Tiers
-----
* ``exhaustive`` — indices ``[lo, hi)`` of stratum ``stratum`` in the
  canonical lexicographic order of :class:`repro.inject.space.ScenarioSpace`.
* ``stratified`` — ``draws`` i.i.d. uniform index draws from stratum
  ``stratum``, generated by a :class:`random.Random` seeded with
  ``(seed, stratum, lo)`` (``lo`` doubles as the shard's draw-block
  ordinal); duplicate draws are simulated once but *counted* per draw so
  the aggregate stays a proper binomial sample.
* ``importance`` — indices ``[lo, hi)`` of the deterministic importance
  list of :mod:`repro.inject.importance` (wave 0: these shards are
  enqueued first so directed adversaries are covered before any random
  coverage begins).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import SimulationError

TIER_EXHAUSTIVE = "exhaustive"
TIER_STRATIFIED = "stratified"
TIER_IMPORTANCE = "importance"

TIERS = (TIER_EXHAUSTIVE, TIER_STRATIFIED, TIER_IMPORTANCE)


@dataclass(frozen=True)
class ShardSpec:
    """One independently executable slice of an injection sweep."""

    tier: str
    wave: int  # enqueue wave: 0 = importance, 1+ = coverage tiers
    stratum: int | None  # fault-count stratum; None for importance
    lo: int  # first index (exhaustive/importance) or draw-block ordinal
    hi: int  # one past the last index; lo + 1 for stratified blocks
    draws: int  # Bernoulli draws (stratified only, else hi - lo)
    seed: int  # master sweep seed (stratified RNG derivation)

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise SimulationError(f"unknown shard tier {self.tier!r}")
        if self.hi < self.lo:
            raise SimulationError(f"empty shard range [{self.lo}, {self.hi})")
        if self.tier != TIER_IMPORTANCE and self.stratum is None:
            raise SimulationError(f"{self.tier} shard needs a stratum")

    @property
    def scenario_budget(self) -> int:
        """Scenarios this shard is responsible for (draws included)."""
        return self.draws if self.tier == TIER_STRATIFIED else self.hi - self.lo

    def describe(self) -> str:
        if self.tier == TIER_IMPORTANCE:
            return f"importance[{self.lo}:{self.hi}]"
        if self.tier == TIER_EXHAUSTIVE:
            return f"stratum{self.stratum}[{self.lo}:{self.hi}]"
        return f"stratum{self.stratum}~{self.draws}@block{self.lo}"

    def rng_label(self) -> str:
        """Derivation string of the stratified draw RNG (stable contract)."""
        return f"inject:{self.seed}:{self.stratum}:{self.lo}"


def shard_fingerprint(target_fingerprint: str, spec: ShardSpec) -> str:
    """Durable identity of one shard of one target's sweep.

    The target fingerprint pins the schedule record *and* its model
    context; the spec pins the scenario coordinates.  Same fingerprint ⇒
    same scenario set, on any machine — the checkpoint key of
    ``ftds inject --resume``.
    """
    spec_text = (
        f"{spec.tier}:{spec.wave}:{spec.stratum}:{spec.lo}:{spec.hi}:"
        f"{spec.draws}:{spec.seed}"
    )
    digest = hashlib.sha256(
        f"{target_fingerprint}|{spec_text}".encode()
    ).hexdigest()
    return digest


def partition_stratum(
    size: int,
    shard_size: int,
    stratum: int,
    wave: int,
    seed: int,
) -> list[ShardSpec]:
    """Split stratum ``stratum`` (``size`` scenarios) into exhaustive shards.

    Ranges ``[0, shard_size), [shard_size, 2·shard_size), …`` — disjoint
    by construction and union-complete over the stratum.
    """
    if shard_size < 1:
        raise SimulationError(f"shard size must be >= 1, got {shard_size}")
    shards = []
    for lo in range(0, size, shard_size):
        hi = min(lo + shard_size, size)
        shards.append(
            ShardSpec(
                tier=TIER_EXHAUSTIVE,
                wave=wave,
                stratum=stratum,
                lo=lo,
                hi=hi,
                draws=hi - lo,
                seed=seed,
            )
        )
    return shards


def partition_draws(
    draws: int,
    shard_size: int,
    stratum: int,
    wave: int,
    seed: int,
) -> list[ShardSpec]:
    """Split ``draws`` stratified draws into blocks of ``shard_size``."""
    if shard_size < 1:
        raise SimulationError(f"shard size must be >= 1, got {shard_size}")
    shards = []
    block = 0
    remaining = draws
    while remaining > 0:
        take = min(shard_size, remaining)
        shards.append(
            ShardSpec(
                tier=TIER_STRATIFIED,
                wave=wave,
                stratum=stratum,
                lo=block,
                hi=block + 1,
                draws=take,
                seed=seed,
            )
        )
        block += 1
        remaining -= take
    return shards
