"""XOR-parity forward error correction over packet groups.

Every ``group_size`` consecutive data packets get one parity packet
whose payload is the XOR of the group's (zero-padded) payloads, prefixed
by the XOR of their lengths and section flags.  XOR parity recovers any
*single* missing packet per group -- the length and flag of the missing
packet fall out of the same XOR identity as its bytes.  Two losses in
one group are unrecoverable, which is why FEC is paired with
interleaving: a burst that would land inside one group is first spread
across many.
"""

from __future__ import annotations

import struct

from repro.transport.packetizer import Packet

__all__ = ["add_parity", "recover_with_parity"]

#: Parity payload header: flag byte, group packet count, XOR of lengths.
_HEADER = struct.Struct(">BBI")


def _group_parity(group: list[Packet], group_index: int) -> Packet:
    flags = 0
    lengths = 0
    acc = 0  # payloads as little-endian integers: short ones zero-pad
    for packet in group:
        flags ^= 1 if packet.starts_section else 0
        lengths ^= len(packet.payload)
        acc ^= int.from_bytes(packet.payload, "little")
    body = acc.to_bytes(max(len(p.payload) for p in group), "little")
    payload = _HEADER.pack(flags, len(group), lengths) + body
    return Packet(
        seq=group_index,
        payload=payload,
        starts_section=False,
        is_parity=True,
        group=group_index,
    )


def add_parity(packets: list[Packet], group_size: int = 4) -> list[Packet]:
    """Append one parity packet after every ``group_size`` data packets.

    Data packets keep their sequence numbers; each is tagged with its
    group so the receiver can match parity to survivors.  The trailing
    partial group (if any) is protected too.
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    out: list[Packet] = []
    for start in range(0, len(packets), group_size):
        group_index = start // group_size
        group = [
            Packet(
                p.seq,
                p.payload,
                starts_section=p.starts_section,
                is_parity=False,
                group=group_index,
            )
            for p in packets[start : start + group_size]
        ]
        out.extend(group)
        out.append(_group_parity(group, group_index))
    return out


def recover_with_parity(
    packets: list[Packet], group_size: int = 4
) -> tuple[list[Packet], int]:
    """Reconstruct single missing data packets from group parity.

    Returns ``(data_packets, n_recovered)``: the delivered data packets
    plus any parity-recovered ones, parity packets stripped.  A group
    missing two or more data packets (or missing its parity) yields only
    its survivors.
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
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
        flags, group_count, lengths = _HEADER.unpack_from(check.payload)
        present = {p.seq for p in survivors}
        missing = [
            seq for seq in range(group_start, group_start + group_count)
            if seq not in present
        ]
        if len(missing) != 1:
            continue
        body_len = len(check.payload) - _HEADER.size
        acc = int.from_bytes(check.payload[_HEADER.size :], "little")
        for packet in survivors:
            if len(packet.payload) > body_len:
                # No parity body this group computed is shorter than one
                # of its members: the pairing is wrong.
                raise IndexError(
                    f"survivor {packet.seq} is longer than its group's "
                    "parity body"
                )
            flags ^= 1 if packet.starts_section else 0
            lengths ^= len(packet.payload)
            acc ^= int.from_bytes(packet.payload, "little")
        if lengths > body_len:
            # Parity itself was damaged/mispaired; don't fabricate bytes.
            continue
        recovered.append(
            Packet(
                seq=missing[0],
                payload=acc.to_bytes(body_len, "little")[:lengths],
                starts_section=bool(flags & 1),
                is_parity=False,
                group=group_index,
            )
        )
        n_recovered += 1
    return sorted(data + recovered, key=lambda p: p.seq), n_recovered
