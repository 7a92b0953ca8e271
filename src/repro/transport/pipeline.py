"""The composed send/receive path: packetize -> FEC -> interleave -> channel.

``transmit_stream`` is the single entry point the resilience study and
the examples use: it pushes an encoded bitstream through the whole
transport stack and returns both the (possibly damaged) received stream
and the loss/recovery accounting needed for the study's recovery-rate
curves.  Everything downstream of the seed is deterministic, so a
``(stream, config)`` pair fully determines the result.

The send half -- packetize, parity, interleave -- is a pure function of
``(data, max_payload, fec_group, interleave_depth)``, so it runs once
per distinct input (a bounded LRU memo keyed on all four); a call runs
only the channel.  When the channel drops nothing, the received stream
is ``data`` byte for byte (packetization tiles the stream in order), so
recovery and reassembly are skipped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro import obs
from repro.transport.channel import GilbertElliottChannel, profile_for_loss
from repro.transport.fec import add_parity, recover_with_parity
from repro.transport.interleave import interleave
from repro.transport.packetizer import Packet, depacketize, packetize

__all__ = ["TransportConfig", "TransmissionResult", "transmit_stream"]

#: Distinct send-half inputs the memo holds; the least recently used one
#: is evicted first.
_SEND_MEMO_CAPACITY = 64


@dataclass(frozen=True)
class TransportConfig:
    """Transport-side knobs of one resilience configuration."""

    max_payload: int = 256
    loss_rate: float = 0.0
    seed: int = 0
    #: 0 disables FEC; otherwise one parity packet per ``fec_group`` data
    #: packets.
    fec_group: int = 0
    #: 1 disables interleaving.
    interleave_depth: int = 1
    #: Channel outage windows ``(start, end)`` over transmission indices
    #: (half-open); empty means no blackout.  See
    #: :class:`~repro.transport.channel.GilbertElliottChannel`.
    blackout: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.max_payload <= 0:
            raise ValueError("max_payload must be positive")
        if self.fec_group < 0:
            raise ValueError("fec_group must be >= 0")
        if self.interleave_depth <= 0:
            raise ValueError("interleave_depth must be positive")
        for start, end in self.blackout:
            if start < 0 or end < start:
                raise ValueError(f"bad blackout window ({start}, {end})")


@dataclass(frozen=True)
class TransmissionResult:
    """Accounting for one stream pushed through the lossy transport."""

    stream: bytes
    n_data_packets: int
    n_sent_packets: int
    n_dropped: int
    n_recovered: int
    lost_seqs: tuple[int, ...]

    @property
    def recovery_rate(self) -> float:
        """Fraction of dropped packets made whole again (FEC)."""
        if self.n_dropped == 0:
            return 1.0
        return self.n_recovered / self.n_dropped

    @property
    def delivered_intact(self) -> bool:
        return not self.lost_seqs and self.n_dropped == self.n_recovered


@functools.lru_cache(maxsize=_SEND_MEMO_CAPACITY)
def _send_half(
    data: bytes, max_payload: int, fec_group: int, interleave_depth: int
) -> tuple[int, tuple[Packet, ...]]:
    """``(n_data_packets, wire)``: the packets of ``data`` in transmission
    order.  Packets are frozen and ``wire`` is a tuple, so every caller
    shares one memo entry safely."""
    data_packets = packetize(data, max_payload)
    sendable = add_parity(data_packets, fec_group) if fec_group else data_packets
    return len(data_packets), tuple(interleave(sendable, interleave_depth))


def transmit_stream(data: bytes, config: TransportConfig) -> TransmissionResult:
    """Push ``data`` through packetization, FEC, interleaving and loss."""
    data = bytes(data)  # the memo key; a no-op for ``bytes``
    with obs.span("transport.transmit", bytes=len(data)):
        with obs.span("transport.packetize"):
            n_data_packets, wire = _send_half(
                data, config.max_payload, config.fec_group,
                config.interleave_depth,
            )
        with obs.span("transport.channel"):
            channel = GilbertElliottChannel(
                config.seed,
                profile_for_loss(config.loss_rate),
                blackout=config.blackout,
            )
            delivered, dropped = channel.transmit(wire)
        if not dropped:
            stream, lost_seqs, n_recovered = data, (), 0
        else:
            with obs.span("transport.fec_recover"):
                if config.fec_group:
                    received, n_recovered = recover_with_parity(
                        delivered, config.fec_group
                    )
                else:
                    received = [p for p in delivered if not p.is_parity]
                    n_recovered = 0
                stream, lost_seqs = depacketize(received)
        obs.counter_add("transport.packets_sent", len(wire))
        obs.counter_add("transport.packets_dropped", len(dropped))
        obs.counter_add("transport.packets_recovered", n_recovered)
    return TransmissionResult(
        stream=stream,
        n_data_packets=n_data_packets,
        n_sent_packets=len(wire),
        n_dropped=len(dropped),
        n_recovered=n_recovered,
        lost_seqs=tuple(lost_seqs),
    )
