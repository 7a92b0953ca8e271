"""Bit-level stream writer/reader with MPEG-4 style startcodes.

MPEG-4 bitstreams are hierarchies of byte-aligned sections delimited by
unique 32-bit startcodes (``00 00 01 xx``); the decoder "reads a stream of
bits looking for the unique bit patterns called startcodes that mark the
divisions between different sections" (paper Section 2.1).  Section
payloads are self-delimiting VLC, so a conforming decode always lands
exactly on the stuffing that precedes the next startcode;
``next_startcode`` is only ever invoked from such aligned positions.
"""

from __future__ import annotations

from repro.codec.errors import MalformedStreamError, TruncatedStreamError

# Startcode suffixes (the ``xx`` of ``00 00 01 xx``), loosely following
# ISO/IEC 14496-2 value ranges.
VO_STARTCODE = 0x05
VOL_STARTCODE = 0x20
VOP_STARTCODE = 0xB6
USER_DATA_STARTCODE = 0xB2
SEQUENCE_END_CODE = 0xB1
#: Video-packet resync marker (error-resilience tool).
RESYNC_STARTCODE = 0xB7
#: Motion marker: separates the motion/DC partition from the texture
#: partition inside one data-partitioned video packet.
MOTION_MARKER_STARTCODE = 0xB8

STARTCODE_PREFIX = (0x00, 0x00, 0x01)


class BitWriter:
    """Append-only MSB-first bit sink."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_buffer = 0
        self._bit_count = 0

    def write_bits(self, value: int, n_bits: int) -> None:
        """Write ``n_bits`` of ``value`` (MSB first)."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if n_bits == 0:
            return
        if value < 0 or value >= (1 << n_bits):
            raise ValueError(f"value {value} does not fit in {n_bits} bits")
        self._bit_buffer = (self._bit_buffer << n_bits) | value
        self._bit_count += n_bits
        while self._bit_count >= 8:
            self._bit_count -= 8
            self._bytes.append((self._bit_buffer >> self._bit_count) & 0xFF)
        self._bit_buffer &= (1 << self._bit_count) - 1

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit & 1, 1)

    def write_ue(self, value: int) -> None:
        """Exponential-Golomb unsigned code (generic VLC for headers)."""
        value = int(value)  # accept NumPy integers
        if value < 0:
            raise ValueError("write_ue takes non-negative values")
        code = value + 1
        length = code.bit_length()
        self.write_bits(0, length - 1)
        self.write_bits(code, length)

    def write_se(self, value: int) -> None:
        """Signed Exp-Golomb: 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ..."""
        mapped = 2 * value - 1 if value > 0 else -2 * value
        self.write_ue(mapped)

    def byte_align(self) -> None:
        """Stuff with a ``0`` then ``1``s to the byte boundary (MPEG-4 style)."""
        self.write_bit(0)
        while self._bit_count % 8:
            self.write_bit(1)

    def write_startcode(self, suffix: int) -> None:
        self.byte_align()
        for byte in STARTCODE_PREFIX:
            self._bytes.append(byte)
        self._bytes.append(suffix & 0xFF)

    def extend(self, other: "BitWriter") -> None:
        """Append every bit written to ``other`` (used to splice the
        texture partition after the motion marker)."""
        for byte in other._bytes:
            self.write_bits(byte, 8)
        if other._bit_count:
            self.write_bits(other._bit_buffer, other._bit_count)

    def getvalue(self) -> bytes:
        """Finished byte string; flushes any partial byte with stuffing."""
        if self._bit_count:
            tail = BitWriter()
            tail._bytes = bytearray(self._bytes)
            tail._bit_buffer = self._bit_buffer
            tail._bit_count = self._bit_count
            tail.byte_align()
            return bytes(tail._bytes)
        return bytes(self._bytes)

    @property
    def bit_position(self) -> int:
        return len(self._bytes) * 8 + self._bit_count

    def __len__(self) -> int:
        """Current whole bytes written (excluding any partial byte)."""
        return len(self._bytes)


class BitReader:
    """MSB-first bit source with startcode scanning.

    Every field is one ``int.from_bytes`` over the bytes it spans plus a
    shift and a mask, so a read costs the same for 1 bit or 32.  Errors
    keep the positions a bit-serial reader reports: a fixed-length field
    that runs past the end raises at its first bit and consumes nothing,
    while a variable-length code (Exp-Golomb, or a table VLC via
    :meth:`consume_code`) cut off by the end raises at the stream end,
    where a bit-at-a-time decode would have stopped.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._n_bits = len(data) * 8

    @property
    def data(self) -> bytes:
        """The underlying byte string (shared with backward readers)."""
        return self._data

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._n_bits - self._pos

    def read_bits(self, n_bits: int) -> int:
        pos = self._pos
        end = pos + n_bits
        if n_bits <= 0 or end > self._n_bits:
            if n_bits < 0:
                raise ValueError("n_bits must be non-negative")
            if n_bits == 0:
                return 0
            raise TruncatedStreamError(
                f"requested {n_bits} bits, {self.bits_remaining} remain",
                bit_position=pos,
            )
        self._pos = end
        stop = (end + 7) >> 3
        value = int.from_bytes(self._data[pos >> 3 : stop], "big")
        return (value >> ((stop << 3) - end)) & ((1 << n_bits) - 1)

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._n_bits:
            raise TruncatedStreamError(
                "requested 1 bits, 0 remain", bit_position=pos
            )
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def peek_bits(self, n_bits: int) -> int:
        """Read without consuming; short reads at EOF are zero-padded."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        pos = self._pos
        start = pos >> 3
        stop = (pos + n_bits + 7) >> 3
        chunk = self._data[start:stop]
        # The stream ends on a byte boundary, so padding whole bytes is
        # padding the missing bits.
        value = int.from_bytes(chunk, "big") << ((stop - start - len(chunk)) << 3)
        return (value >> ((stop << 3) - pos - n_bits)) & ((1 << n_bits) - 1)

    def consume_code(self, n_bits: int) -> None:
        """Consume a ``n_bits`` variable-length code found by peeking.

        A code cut off by the end of the stream leaves the reader at the
        end and raises there, as a bit-serial code walk would.
        """
        end = self._pos + n_bits
        if end > self._n_bits:
            self._pos = self._n_bits
            raise TruncatedStreamError(
                "requested 1 bits, 0 remain", bit_position=self._n_bits
            )
        self._pos = end

    def read_ue(self) -> int:
        # Count the leading zeros in a 32-bit window; a zero window (a
        # long prefix or the end of the stream) takes the serial path.
        window = self.peek_bits(32)
        if window:
            length = 65 - 2 * window.bit_length()  # 2 * zeros + 1
            code = window >> (32 - length) if length <= 32 else self.peek_bits(length)
            self.consume_code(length)
            return code - 1
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise MalformedStreamError(
                    "malformed Exp-Golomb code", bit_position=self._pos
                )
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value - 1

    def read_se(self) -> int:
        mapped = self.read_ue()
        if mapped % 2:
            return (mapped + 1) // 2
        return -(mapped // 2)

    def byte_align(self) -> None:
        """Consume stuffing up to the next byte boundary.

        Mirrors the writer's stuffing rule: a writer that was already
        aligned emits a full ``0x7F`` stuffing byte (``0`` then seven
        ``1`` s), so an aligned reader consumes exactly that byte when
        present.
        """
        if self._pos % 8 == 0:
            byte_pos = self._pos // 8
            if byte_pos < len(self._data) and self._data[byte_pos] == 0x7F:
                self._pos += 8
            return
        self._pos += 8 - (self._pos % 8)

    def next_startcode(self) -> int | None:
        """Scan forward to the next startcode; returns its suffix or None.

        Leaves the position just after the 4-byte code.
        """
        self.byte_align()
        data = self._data
        byte_pos = self._pos // 8
        end = len(data) - 3
        while byte_pos < end:
            if data[byte_pos] == 0 and data[byte_pos + 1] == 0 and data[byte_pos + 2] == 1:
                self._pos = (byte_pos + 4) * 8
                return data[byte_pos + 3]
            byte_pos += 1
        self._pos = len(data) * 8
        return None

    def find_startcode_prefix(self) -> int:
        """Bit position of the next startcode prefix at or after the
        current (rounded-up-to-byte) position, without consuming anything.

        Returns the total bit length of the stream when no further prefix
        exists.  Used by the data-partitioned decoder to bound the texture
        partition before parsing it.
        """
        data = self._data
        byte_pos = (self._pos + 7) // 8
        end = len(data) - 2
        while byte_pos < end:
            if data[byte_pos] == 0 and data[byte_pos + 1] == 0 and data[byte_pos + 2] == 1:
                return byte_pos * 8
            byte_pos += 1
        return len(data) * 8

    def at_startcode(self) -> bool:
        """True if the (aligned) position sits exactly on a startcode prefix."""
        if self._pos % 8:
            return False
        byte_pos = self._pos // 8
        return self._data[byte_pos : byte_pos + 3] == b"\x00\x00\x01"

    def seek_bits(self, bit_position: int) -> None:
        """Reposition the reader (used by error-resilient re-sync)."""
        if not 0 <= bit_position <= len(self._data) * 8:
            raise ValueError(f"bit position {bit_position} outside stream")
        self._pos = bit_position


class ReverseBitReader:
    """Reads bits backward through ``data[start_bit:end_bit)``.

    The reversible-VLC salvage path decodes the tail of a damaged texture
    partition from its end (the bit just before the next startcode's
    stuffing) back toward the point where forward decoding failed.  The
    ``start_bit`` bound keeps the backward parse from re-reading bits the
    forward parse already consumed.
    """

    def __init__(self, data: bytes, start_bit: int, end_bit: int) -> None:
        total = len(data) * 8
        if not 0 <= start_bit <= end_bit <= total:
            raise ValueError(
                f"reverse window [{start_bit}, {end_bit}) outside stream of {total} bits"
            )
        self._data = data
        self._start = start_bit
        self._pos = end_bit  # next read returns the bit at _pos - 1

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._pos - self._start

    def read_bit(self) -> int:
        if self._pos <= self._start:
            raise TruncatedStreamError(
                "backward read crossed the partition start", bit_position=self._pos
            )
        self._pos -= 1
        byte = self._data[self._pos >> 3]
        return (byte >> (7 - (self._pos & 7))) & 1

    def peek_bit(self) -> int:
        """The bit a ``read_bit`` would return, without consuming it."""
        if self._pos <= self._start:
            raise TruncatedStreamError(
                "backward peek crossed the partition start", bit_position=self._pos
            )
        byte = self._data[(self._pos - 1) >> 3]
        return (byte >> (7 - ((self._pos - 1) & 7))) & 1
