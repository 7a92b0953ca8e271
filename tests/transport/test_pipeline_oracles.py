"""The integer-XOR FEC and the memoized send half against their oracles.

``byte_add_parity`` and ``byte_recover`` are the per-byte XOR loops that
``transport/fec.py`` replaced with integer XOR; ``composed_transmit`` is
the send/receive composition ``transmit_stream`` replaced with a
send-half memo and a no-loss shortcut.  Each new path must return what
its oracle returns: the same packets, counts, streams and exceptions.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.transport import pipeline
from repro.transport.channel import GilbertElliottChannel, profile_for_loss
from repro.transport.fec import _HEADER, add_parity, recover_with_parity
from repro.transport.interleave import interleave
from repro.transport.packetizer import Packet, depacketize, packetize
from repro.transport.pipeline import (
    TransmissionResult,
    TransportConfig,
    transmit_stream,
)


def byte_group_parity(group: list[Packet], group_index: int) -> Packet:
    flags = 0
    lengths = 0
    body = bytearray(max(len(p.payload) for p in group))
    for packet in group:
        flags ^= 1 if packet.starts_section else 0
        lengths ^= len(packet.payload)
        for i, byte in enumerate(packet.payload):
            body[i] ^= byte
    payload = _HEADER.pack(flags, len(group), lengths) + bytes(body)
    return Packet(seq=group_index, payload=payload, starts_section=False,
                  is_parity=True, group=group_index)


def byte_add_parity(packets: list[Packet], group_size: int) -> list[Packet]:
    out: list[Packet] = []
    for start in range(0, len(packets), group_size):
        group_index = start // group_size
        group = [
            Packet(p.seq, p.payload, starts_section=p.starts_section,
                   is_parity=False, group=group_index)
            for p in packets[start : start + group_size]
        ]
        out.extend(group)
        out.append(byte_group_parity(group, group_index))
    return out


def byte_recover(
    packets: list[Packet], group_size: int
) -> tuple[list[Packet], int]:
    data = [p for p in packets if not p.is_parity]
    parity = {p.group: p for p in packets if p.is_parity}
    by_group: dict[int, list[Packet]] = {}
    for packet in data:
        by_group.setdefault(packet.group, []).append(packet)
    recovered: list[Packet] = []
    n_recovered = 0
    for group_index, check in sorted(parity.items()):
        survivors = by_group.get(group_index, [])
        group_start = group_index * group_size
        _, group_count, _ = _HEADER.unpack_from(check.payload)
        expected = range(group_start, group_start + group_count)
        missing = [seq for seq in expected
                   if all(p.seq != seq for p in survivors)]
        if len(missing) != 1:
            continue
        flags, _, lengths = _HEADER.unpack_from(check.payload)
        body = bytearray(check.payload[_HEADER.size :])
        for packet in survivors:
            flags ^= 1 if packet.starts_section else 0
            lengths ^= len(packet.payload)
            for i, byte in enumerate(packet.payload):
                body[i] ^= byte
        if lengths > len(body):
            continue
        recovered.append(Packet(seq=missing[0], payload=bytes(body[:lengths]),
                                starts_section=bool(flags & 1),
                                is_parity=False, group=group_index))
        n_recovered += 1
    return sorted(data + recovered, key=lambda p: p.seq), n_recovered


def composed_transmit(data: bytes, config: TransportConfig) -> TransmissionResult:
    """Every stage on every call, recovery and reassembly included."""
    data_packets = packetize(data, config.max_payload)
    sendable = (byte_add_parity(data_packets, config.fec_group)
                if config.fec_group else list(data_packets))
    wire = interleave(sendable, config.interleave_depth)
    channel = GilbertElliottChannel(
        config.seed, profile_for_loss(config.loss_rate),
        blackout=config.blackout,
    )
    delivered, dropped = channel.transmit(wire)
    if config.fec_group:
        received, n_recovered = byte_recover(delivered, config.fec_group)
    else:
        received = [p for p in delivered if not p.is_parity]
        n_recovered = 0
    stream, lost_seqs = depacketize(received)
    return TransmissionResult(
        stream=stream,
        n_data_packets=len(data_packets),
        n_sent_packets=len(wire),
        n_dropped=len(dropped),
        n_recovered=n_recovered,
        lost_seqs=tuple(lost_seqs),
    )


#: Data packets as ``add_parity`` receives them: payloads of 0-300
#: bytes, unequal and empty ones included, starts-section flags mixed.
packet_lists = st.lists(
    st.tuples(st.binary(max_size=300), st.booleans()), min_size=1, max_size=8,
).map(lambda items: [
    Packet(seq, payload, starts_section=starts)
    for seq, (payload, starts) in enumerate(items)
])


class TestParity:
    @given(packet_lists, st.integers(min_value=1, max_value=8))
    @settings(max_examples=150)
    @example([Packet(0, b"")], 1)
    @example([Packet(0, b""), Packet(1, b"\xff" * 300), Packet(2, b"\x01")], 8)
    def test_parity_payloads_equal_the_byte_loop(self, packets, group_size):
        assert add_parity(packets, group_size) == \
            byte_add_parity(packets, group_size)


def losses_within_groups(protected: list[Packet]):
    """Every loss subset of each group (the other groups delivered)."""
    groups: dict[int, list[int]] = {}
    for position, packet in enumerate(protected):
        groups.setdefault(packet.group, []).append(position)
    for members in groups.values():
        for k in range(len(members) + 1):
            for lost in combinations(members, k):
                yield [p for i, p in enumerate(protected) if i not in lost]


class TestRecovery:
    @given(packet_lists, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_every_loss_subset_of_a_group(self, packets, group_size):
        """The parity packet itself may be among the lost."""
        protected = add_parity(packets, group_size)
        for survivors in losses_within_groups(protected):
            assert recover_with_parity(survivors, group_size) == \
                byte_recover(survivors, group_size)

    @given(packet_lists, st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=60)
    def test_damaged_parity_fabricates_nothing(self, packets, group_size, data):
        """A parity whose length field exceeds its body (``lengths >
        len(body)``) recovers nothing, in both implementations."""
        protected = add_parity(packets, group_size)
        bump = data.draw(st.integers(min_value=1, max_value=2**20))
        damaged = []
        for packet in protected:
            if packet.is_parity:
                flags, count, lengths = _HEADER.unpack_from(packet.payload)
                body = packet.payload[_HEADER.size :]
                header = _HEADER.pack(flags, count, len(body) + bump)
                packet = Packet(packet.seq, header + body, starts_section=False,
                                is_parity=True, group=packet.group)
            damaged.append(packet)
        for survivors in losses_within_groups(damaged):
            recovered = recover_with_parity(survivors, group_size)
            assert recovered == byte_recover(survivors, group_size)

    def test_length_past_the_body_recovers_nothing(self):
        packets = [Packet(seq, bytes([seq + 1]) * 4) for seq in range(3)]
        *data, check = add_parity(packets, 3)
        flags, count, _ = _HEADER.unpack_from(check.payload)
        damaged = Packet(check.seq,
                         _HEADER.pack(flags, count, 2**20)
                         + check.payload[_HEADER.size :],
                         starts_section=False, is_parity=True, group=0)
        survivors = [*data[1:], damaged]
        assert recover_with_parity(survivors, 3) == (data[1:], 0)
        assert byte_recover(survivors, 3) == (data[1:], 0)

    def test_survivor_longer_than_its_parity_body_raises(self):
        packets = [Packet(seq, bytes([seq + 1]) * 4) for seq in range(3)]
        protected = add_parity(packets, 3)
        # Seq 0 is lost; seq 1 comes back longer than the parity body.
        survivors = [
            Packet(1, b"\x02" * 9, group=0) if p.seq == 1 and not p.is_parity
            else p
            for p in protected if p.is_parity or p.seq != 0
        ]
        with pytest.raises(IndexError):
            byte_recover(survivors, 3)
        with pytest.raises(IndexError):
            recover_with_parity(survivors, 3)


def startcode_streams():
    """Bitstream-shaped byte strings: startcode-delimited sections."""
    return st.lists(
        st.binary(min_size=0, max_size=200).map(
            lambda body: b"\x00\x00\x01\xb6" + body
        ),
        max_size=10,
    ).map(b"".join)


streams = st.one_of(startcode_streams(), st.binary(max_size=1500))
blackouts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=12)),
    max_size=3,
).map(lambda windows: tuple((start, start + n) for start, n in windows))


class TestTransmitStream:
    @given(
        streams,
        st.sampled_from([16, 64, 96, 128]),
        st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.3, 0.6]),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.sampled_from([0, 1, 2, 4, 6]),
        st.sampled_from([1, 2, 3, 4, 8]),
        blackouts,
    )
    @settings(max_examples=200, deadline=None)
    @example(b"", 96, 0.05, 1, 4, 2, ())
    @example(b"\x01\x02" * 300, 96, 0.0, 1, 4, 2, ((0, 3),))
    def test_equals_the_composition(
        self, data, max_payload, loss_rate, seed, fec_group, depth, blackout
    ):
        config = TransportConfig(
            max_payload=max_payload, loss_rate=loss_rate, seed=seed,
            fec_group=fec_group, interleave_depth=depth, blackout=blackout,
        )
        expected = composed_transmit(data, config)
        assert transmit_stream(data, config) == expected
        assert transmit_stream(data, config) == expected  # memo warm

    @pytest.mark.parametrize("fec_group, depth", [(0, 1), (4, 2), (4, 4)])
    def test_settings_in_use_at_every_loss_rate(self, fec_group, depth):
        """The service's, the resilience study's and the plain ladder's
        transport shapes, over many channel seeds."""
        data = b"".join(
            b"\x00\x00\x01\xb6" + bytes((i * 7 + j) % 251 for j in range(40 + i))
            for i in range(24)
        )
        for loss_rate in (0.0, 0.01, 0.03, 0.05, 0.1):
            for seed in range(40):
                config = TransportConfig(
                    max_payload=96, loss_rate=loss_rate, seed=seed,
                    fec_group=fec_group, interleave_depth=depth,
                )
                assert transmit_stream(data, config) == \
                    composed_transmit(data, config)

    def test_received_stream_is_the_input_when_nothing_drops(self):
        data = b"\x00\x00\x01\xb6" + bytes(range(200))
        result = transmit_stream(data, TransportConfig(max_payload=64))
        assert result.stream is data
        assert result.n_dropped == 0 and result.lost_seqs == ()


class TestSendHalfMemo:
    @pytest.fixture
    def packetize_calls(self, monkeypatch):
        calls = []

        def counting(data, max_payload=256):
            calls.append((data, max_payload))
            return packetize(data, max_payload)

        monkeypatch.setattr(pipeline, "packetize", counting)
        pipeline._send_half.cache_clear()
        yield calls
        pipeline._send_half.cache_clear()

    def test_send_half_runs_once_per_distinct_input(self, packetize_calls):
        data = b"\x00\x00\x01\xb6" + bytes(range(250)) * 2
        base = dict(max_payload=96, fec_group=4, interleave_depth=2)
        for seed in range(5):
            for loss_rate in (0.0, 0.05):
                transmit_stream(
                    data, TransportConfig(loss_rate=loss_rate, seed=seed, **base)
                )
        assert len(packetize_calls) == 1
        # An equal copy of the bytes is the same input.
        transmit_stream(bytes(bytearray(data)), TransportConfig(**base))
        assert len(packetize_calls) == 1
        # Each of the four inputs is in the key.
        transmit_stream(data[:-1], TransportConfig(**base))
        transmit_stream(data, TransportConfig(**{**base, "max_payload": 64}))
        transmit_stream(data, TransportConfig(**{**base, "fec_group": 0}))
        transmit_stream(data, TransportConfig(**{**base, "interleave_depth": 4}))
        assert len(packetize_calls) == 5

    def test_memo_is_bounded(self, packetize_calls):
        capacity = pipeline._SEND_MEMO_CAPACITY
        for n in range(capacity + 5):
            transmit_stream(bytes(n), TransportConfig())
        assert pipeline._send_half.cache_info().currsize == capacity
        transmit_stream(bytes(capacity + 4), TransportConfig())  # still held
        transmit_stream(bytes(0), TransportConfig())  # evicted first
        assert len(packetize_calls) == capacity + 6
