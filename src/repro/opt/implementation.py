"""The system configuration ψ = <F, M, S> explored by the optimizer (paper §4).

An :class:`Implementation` carries the decided parts of ψ — the policy
assignment ``F`` and the mapping ``M`` plus the bus configuration — while the
schedule table set ``S`` is derived deterministically from them by
:func:`repro.schedule.list_schedule`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.model.mapping import ReplicaMapping
from repro.model.policy import Policy, PolicyAssignment
from repro.ttp.bus import BusConfig


def signature_entry(
    process: str, policy: Policy, nodes: tuple[str, ...]
) -> tuple:
    """``process``'s entry in :meth:`Implementation.signature`.

    The one entry builder: a full signature is these entries in process
    order, and the evaluator derives a moved candidate's signature from
    its base by replacing only the moved process's entry with one built
    here, so both spellings are equal tuples that hash the same.
    """
    return (
        process,
        policy.n_replicas,
        policy.reexecutions,
        policy.checkpoints,
        nodes,
    )


@dataclass
class Implementation:
    """One point of the design space: policies + replica mapping + bus."""

    policies: PolicyAssignment
    mapping: ReplicaMapping
    bus: BusConfig

    def copy(self) -> "Implementation":
        return Implementation(
            policies=self.policies.copy(),
            mapping=self.mapping.copy(),
            bus=self.bus,
        )

    def signature(self) -> tuple:
        """Canonical hashable identity (used for evaluation caching).

        ``(design, bus)``: one :func:`signature_entry` per process, sorted
        by process name.  Computed afresh on every call, so mutating the
        policies or the mapping always shows in the next signature.
        """
        mapping = self.mapping
        design = tuple(
            signature_entry(process, policy, mapping[process])
            for process, policy in sorted(self.policies.items())
        )
        return (design, self.bus.signature())

    def moved_signature(self, base_signature: tuple, process: str) -> tuple:
        """:meth:`signature`, derived from a base that differs in ``process``.

        ``base_signature`` must be the signature of a design equal to this
        one except for ``process``'s policy and nodes.  Only that entry is
        rebuilt; every other entry is the base's own tuple, so a
        neighbourhood's cache keys share them.  Nothing is memoized, so no
        derived value can outlive a later mutation.
        """
        design, bus = base_signature
        at = bisect_left(design, (process,))
        entry = signature_entry(
            process, self.policies[process], self.mapping[process]
        )
        return ((*design[:at], entry, *design[at + 1:]), bus)

    def with_move(
        self,
        process: str,
        nodes: tuple[str, ...],
        policy,
    ) -> "Implementation":
        """A copy in which ``process`` got new replica nodes and policy."""
        new = self.copy()
        new.policies[process] = policy
        new.mapping.assign(process, nodes)
        return new
