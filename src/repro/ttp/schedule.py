"""Bus scheduling: allocate bus messages to TDMA slots (paper §5.1).

The :class:`BusScheduler` implements the ``ScheduleMessage`` function used by
the list scheduler: a message from node ``N`` ready at time ``t`` is packed
into the earliest frame of ``N`` whose slot starts at or after ``t`` and
which still has payload capacity.  Delivery is at slot end (see
:mod:`repro.ttp.bus`).

The scheduler's only mutable state is the per-slot payload counter
``(node, round) -> used bytes`` plus the MEDL it appends to; the
incremental evaluation kernel (:mod:`repro.schedule.incremental`) re-admits
base descriptors through :meth:`BusScheduler.copy_descriptor`, which keeps
both in step.  :class:`repro.ttp.frame.Frame` views are *rendered* from
MEDL descriptors on demand — they are not part of the scheduling state.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.ttp.bus import BusConfig
from repro.ttp.frame import Frame, frames_from_descriptors
from repro.ttp.medl import MEDL, MessageDescriptor


class BusScheduler:
    """Stateful first-fit allocator of messages into TDMA frames."""

    def __init__(self, bus: BusConfig) -> None:
        self.bus = bus
        self.medl = MEDL()
        # Payload bytes already packed per (node, round) slot.  First-fit
        # packing needs nothing else: a message's offset within its frame is
        # the fill level at pack time, and frame views re-render from the
        # MEDL descriptors.
        self._used: dict[tuple[str, int], int] = {}
        # Per-node timing constants hoisted out of the per-message loop: one
        # bus scheduler prices every message of one candidate schedule, so
        # the slot arithmetic must not re-derive them on every call.
        self._round_length = bus.round_length
        self._offsets = {n: bus.slot_start(n, 0) for n in bus.slot_order}
        self._lengths = {n: bus.slot_lengths[n] for n in bus.slot_order}
        self._capacities = {n: bus.capacity_bytes(n) for n in bus.slot_order}

    def schedule_message(
        self,
        bus_message_id: str,
        sender_node: str,
        size_bytes: int,
        ready_time: float,
    ) -> MessageDescriptor:
        """Pack one message into the earliest feasible frame of its sender.

        ``ready_time`` is the latest time the payload can be produced in any
        fault scenario (the sender's worst-case finish), so the resulting
        slot time is valid in *every* scenario — this is what makes recovery
        transparent to other nodes.
        """
        capacity = self._capacities[sender_node]
        if size_bytes <= 0:
            raise ConfigurationError("message size must be positive")
        if size_bytes > capacity:
            raise ConfigurationError(
                f"message {bus_message_id!r} ({size_bytes} B) exceeds the "
                f"frame capacity of node {sender_node!r} ({capacity} B)"
            )
        round_index = self.bus.first_round_at_or_after(sender_node, ready_time)
        used = self._used
        while True:
            key = (sender_node, round_index)
            fill = used.get(key, 0)
            if fill + size_bytes <= capacity:
                used[key] = fill + size_bytes
                slot_start = round_index * self._round_length + self._offsets[
                    sender_node
                ]
                descriptor = MessageDescriptor(
                    bus_message_id=bus_message_id,
                    sender_node=sender_node,
                    round_index=round_index,
                    slot_start=slot_start,
                    slot_end=slot_start + self._lengths[sender_node],
                    offset_bytes=fill,
                    size_bytes=size_bytes,
                )
                return self.medl.add(descriptor)
            round_index += 1

    def copy_descriptor(self, descriptor: MessageDescriptor) -> None:
        """Adopt a descriptor from a base schedule without re-packing.

        Only valid when the caller has proven the first-fit decision would
        come out identical: the sender's fill levels equal the base run's at
        this point and the message is ready at the same time.  The fill
        accounting is replayed so later (possibly diverging) packs on the
        same node still see correct occupancy.
        """
        key = (descriptor.sender_node, descriptor.round_index)
        used = self._used
        fill = used.get(key, 0)
        used[key] = fill + descriptor.size_bytes
        self.medl.adopt(descriptor)

    def frames(self) -> list[Frame]:
        """All non-empty frames, ordered by time.

        Rendered from the MEDL descriptors rather than the internal
        allocation state: the descriptors are the canonical artifact (they
        are what a :class:`repro.schedule.record.ScheduleRecord` retains),
        so every frame view must be derivable from them alone.
        """
        return frames_from_descriptors(self.medl, self.bus.capacity_bytes)
