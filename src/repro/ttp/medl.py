"""Message Descriptor List (MEDL) — the TTP controller's schedule table.

"The TDMA access scheme is imposed by a message descriptor list (MEDL) that
is located in every TTP controller" (paper §2.1).  Our MEDL maps every bus
message to the slot/round in which it is broadcast and exposes per-node views
used by the simulated controllers in :mod:`repro.sim.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError

#: Packed descriptor row: ``(bus_message_id, node_index, round_index,
#: slot_start, slot_end, offset_bytes, size_bytes)`` with the sender node
#: interned to an index.  This is the shape MEDL entries take inside a
#: :class:`repro.schedule.record.ScheduleRecord`.  Deliberately a *plain*
#: tuple, not a NamedTuple: CPython's GC only untracks exact tuples, and
#: the record's GC-invisibility argument (DESIGN.md) depends on that.
#: Consumers index rows via the ``PACKED_*`` constants below.
PackedDescriptor = tuple[str, int, int, float, float, int, int]

#: Field positions within a :data:`PackedDescriptor` row.
PACKED_ID = 0
PACKED_NODE = 1
PACKED_ROUND = 2
PACKED_SLOT_START = 3
PACKED_SLOT_END = 4
PACKED_OFFSET = 5
PACKED_SIZE = 6


@dataclass(frozen=True, slots=True)
class MessageDescriptor:
    """Where and when one bus message is broadcast."""

    bus_message_id: str
    sender_node: str
    round_index: int
    slot_start: float
    slot_end: float
    offset_bytes: int
    size_bytes: int

    @property
    def arrival(self) -> float:
        """Delivery time at every receiver: end of the slot."""
        return self.slot_end

    def pack(self, node_index: int) -> PackedDescriptor:
        """Flatten into the record row format (sender interned)."""
        return (
            self.bus_message_id,
            node_index,
            self.round_index,
            self.slot_start,
            self.slot_end,
            self.offset_bytes,
            self.size_bytes,
        )


def unpack_descriptor(
    row: PackedDescriptor, nodes: Sequence[str]
) -> MessageDescriptor:
    """Rehydrate one packed row against the record's node intern table."""
    return MessageDescriptor(
        bus_message_id=row[0],
        sender_node=nodes[row[1]],
        round_index=row[2],
        slot_start=row[3],
        slot_end=row[4],
        offset_bytes=row[5],
        size_bytes=row[6],
    )


class MEDL:
    """All message descriptors of one synthesized system schedule."""

    def __init__(self) -> None:
        self._by_id: dict[str, MessageDescriptor] = {}

    def add(self, descriptor: MessageDescriptor) -> MessageDescriptor:
        if descriptor.bus_message_id in self._by_id:
            raise ConfigurationError(
                f"duplicate MEDL entry for {descriptor.bus_message_id!r}"
            )
        self._by_id[descriptor.bus_message_id] = descriptor
        return descriptor

    def __getitem__(self, bus_message_id: str) -> MessageDescriptor:
        try:
            return self._by_id[bus_message_id]
        except KeyError:
            raise ConfigurationError(
                f"no MEDL entry for bus message {bus_message_id!r}"
            ) from None

    def __contains__(self, bus_message_id: str) -> bool:
        return bus_message_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[MessageDescriptor]:
        return iter(self._by_id.values())

    def by_id(self) -> dict[str, MessageDescriptor]:
        """The id -> descriptor mapping (read-only hot-path view)."""
        return self._by_id

    def adopt(self, descriptor: MessageDescriptor) -> None:
        """Insert a descriptor known to be valid, skipping the dup check.

        Hot path of the delta kernel: re-admits a base schedule's descriptor
        whose pack decision was proven identical (same sender fill state,
        same ready time), so re-running first-fit would be pure waste.
        """
        self._by_id[descriptor.bus_message_id] = descriptor

    def packed(self, node_index_of: Mapping[str, int]) -> tuple[PackedDescriptor, ...]:
        """All descriptors as packed rows, in scheduling (insertion) order."""
        return tuple(
            descriptor.pack(node_index_of[descriptor.sender_node])
            for descriptor in self._by_id.values()
        )

    @classmethod
    def from_packed(
        cls, rows: Iterable[PackedDescriptor], nodes: Sequence[str]
    ) -> "MEDL":
        """Render a MEDL from a record's packed rows (lazy view path)."""
        medl = cls()
        for row in rows:
            medl.add(unpack_descriptor(row, nodes))
        return medl

    def arrival(self, bus_message_id: str) -> float:
        return self[bus_message_id].arrival

    def for_node(self, node: str) -> list[MessageDescriptor]:
        """Descriptors transmitted by ``node``, in slot order."""
        mine = [d for d in self._by_id.values() if d.sender_node == node]
        return sorted(mine, key=lambda d: (d.round_index, d.offset_bytes))

    def last_slot_end(self) -> float:
        """End of the latest used slot (0 when the bus is unused)."""
        return max((d.slot_end for d in self._by_id.values()), default=0.0)
