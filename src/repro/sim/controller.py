"""TTP communication controller model (paper §2.1).

The controller runs independently of the CPU: at every MEDL slot it
broadcasts whatever the host CPU has placed in the send buffer.  If the
producing process has not completed by the slot *start*, the frame goes out
without (valid) payload — exactly the behaviour that makes a replica's fast
frame invalid when the replica was delayed or killed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.ttp.bus import FRAME_EPS
from repro.ttp.medl import MEDL


@dataclass(frozen=True)
class FrameTransmission:
    """Outcome of one frame broadcast."""

    bus_message_id: str
    valid: bool
    arrival: float


class TTPBusModel:
    """Replays the MEDL: per frame, was the payload ready at slot start?"""

    def __init__(self, medl: MEDL) -> None:
        self._medl = medl
        self._sent: dict[str, FrameTransmission] = {}

    def transmit(self, bus_message_id: str, data_ready: float | None) -> FrameTransmission:
        """Broadcast a frame; ``data_ready=None`` means the producer died."""
        descriptor = self._medl[bus_message_id]
        valid = data_ready is not None and data_ready <= descriptor.slot_start + FRAME_EPS
        transmission = FrameTransmission(
            bus_message_id=bus_message_id,
            valid=valid,
            arrival=descriptor.arrival,
        )
        if bus_message_id in self._sent:
            raise SimulationError(f"frame {bus_message_id!r} transmitted twice")
        self._sent[bus_message_id] = transmission
        return transmission

    def reception(self, bus_message_id: str) -> FrameTransmission:
        """What any receiver observed for this frame."""
        try:
            return self._sent[bus_message_id]
        except KeyError:
            raise SimulationError(
                f"frame {bus_message_id!r} was never transmitted"
            ) from None

    def valid_arrival(self, bus_message_id: str) -> float | None:
        transmission = self._sent.get(bus_message_id)
        if transmission is None or not transmission.valid:
            return None
        return transmission.arrival
