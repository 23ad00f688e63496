"""Static TDMA bus configuration (paper §2.1, Fig. 1b).

Each node owns exactly one slot per TDMA round; a round is the slot sequence
for all nodes, and rounds repeat periodically to form the bus cycle.  Within
its slot a node broadcasts one frame in which several messages may be packed.

Timing model: a slot of node ``N`` has a fixed length in ms; a frame can
carry ``floor(slot_length / ms_per_byte)`` payload bytes.  A message packed
into a frame is considered *delivered to every node* at the end of the slot
(conservative by at most one slot length).  The frame content must be in the
communication controller's buffer at the slot start, hence a message may only
be packed into slots starting at or after the sender's data-ready time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ConfigurationError

#: Frame validity epsilon: a frame carries a message whose data is ready by
#: ``slot_start + FRAME_EPS``.  Slot selection, release pricing and both
#: simulators test this one predicate, so the scheduler and the simulated
#: controller agree on which frames are valid.
FRAME_EPS = 1e-9


@dataclass(frozen=True)
class BusConfig:
    """Immutable TDMA configuration: slot order, slot lengths, byte time."""

    slot_order: tuple[str, ...]
    slot_lengths: Mapping[str, float]
    ms_per_byte: float = 1.0
    _starts: dict[str, float] = field(init=False, repr=False, compare=False)
    _round_length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.slot_order:
            raise ConfigurationError("bus needs at least one slot")
        if len(set(self.slot_order)) != len(self.slot_order):
            raise ConfigurationError("a node can own only one slot per round")
        if self.ms_per_byte <= 0:
            raise ConfigurationError("ms_per_byte must be positive")
        lengths = dict(self.slot_lengths)
        for node in self.slot_order:
            if node not in lengths:
                raise ConfigurationError(f"slot length missing for node {node!r}")
            if lengths[node] <= 0:
                raise ConfigurationError(f"slot of {node!r} has non-positive length")
        object.__setattr__(self, "slot_lengths", lengths)
        starts: dict[str, float] = {}
        offset = 0.0
        for node in self.slot_order:
            starts[node] = offset
            offset += lengths[node]
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_round_length", offset)

    # -- derived timing ----------------------------------------------------

    @property
    def round_length(self) -> float:
        """Length of one TDMA round in ms."""
        return self._round_length

    def slot_index(self, node: str) -> int:
        try:
            return self.slot_order.index(node)
        except ValueError:
            raise ConfigurationError(f"node {node!r} owns no slot") from None

    def slot_start(self, node: str, round_index: int) -> float:
        """Absolute start time of ``node``'s slot in round ``round_index``."""
        if round_index < 0:
            raise ConfigurationError("round index must be >= 0")
        if node not in self._starts:
            raise ConfigurationError(f"node {node!r} owns no slot")
        return round_index * self.round_length + self._starts[node]

    def slot_end(self, node: str, round_index: int) -> float:
        return self.slot_start(node, round_index) + self.slot_lengths[node]

    def capacity_bytes(self, node: str) -> int:
        """Payload bytes a single frame of ``node`` can carry."""
        return int(self.slot_lengths[node] / self.ms_per_byte + 1e-9)

    def first_round_at_or_after(self, node: str, time: float) -> int:
        """Smallest round index whose slot of ``node`` starts at/after ``time``."""
        offset = self._starts[node]
        if time <= offset:
            return 0
        candidate = int((time - offset) / self._round_length)
        # Guard against float error: candidate may still start too early.
        while candidate * self._round_length + offset + FRAME_EPS < time:
            candidate += 1
        return candidate

    def validate_for(self, node_names: Iterable[str]) -> None:
        """Check the bus serves exactly the given architecture nodes."""
        expected = set(node_names)
        actual = set(self.slot_order)
        if expected != actual:
            raise ConfigurationError(
                f"bus slots {sorted(actual)} do not match architecture nodes "
                f"{sorted(expected)}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def minimal(
        cls,
        node_order: Iterable[str],
        largest_message_size: int,
        ms_per_byte: float = 1.0,
    ) -> "BusConfig":
        """The paper's initial bus access ``B0`` (§5 step 1).

        Slot *i* is assigned to node *i* and every slot gets the minimal
        allowed length: the transmission time of the largest message in the
        application.
        """
        if largest_message_size <= 0:
            raise ConfigurationError("largest message size must be positive")
        order = tuple(node_order)
        length = largest_message_size * ms_per_byte
        return cls(
            slot_order=order,
            slot_lengths={n: length for n in order},
            ms_per_byte=ms_per_byte,
        )

    def with_slot_order(self, new_order: Iterable[str]) -> "BusConfig":
        """A copy with permuted slots (used by bus access optimization)."""
        return BusConfig(
            slot_order=tuple(new_order),
            slot_lengths=dict(self.slot_lengths),
            ms_per_byte=self.ms_per_byte,
        )

    def with_slot_length(self, node: str, length: float) -> "BusConfig":
        """A copy with one slot length changed."""
        lengths = dict(self.slot_lengths)
        lengths[node] = length
        return BusConfig(
            slot_order=self.slot_order,
            slot_lengths=lengths,
            ms_per_byte=self.ms_per_byte,
        )

    def signature(self) -> tuple:
        """Hashable identity used for evaluation caching."""
        return (
            self.slot_order,
            tuple(sorted(self.slot_lengths.items())),
            self.ms_per_byte,
        )
