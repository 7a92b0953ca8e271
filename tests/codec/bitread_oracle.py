"""Bit-serial oracle for the codec's bit-reading primitives.

One bit per step, as the decoder read before its word-buffered reader
and table-driven VLC lookup: ``read_bits`` loops per bit, and a Huffman
decode walks a binary tree built from the table's codes.  Only the
differential tests use it.
"""

from __future__ import annotations

from functools import cache

from repro.codec.bitstream import BitReader
from repro.codec.errors import MalformedStreamError, TruncatedStreamError, VlcError
from repro.codec.vlc import COEFF_TABLE, ESCAPE


class SerialBitReader(BitReader):
    """:class:`BitReader` with the field reads done one bit at a time."""

    def read_bits(self, n_bits: int) -> int:
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if n_bits > self.bits_remaining:
            raise TruncatedStreamError(
                f"requested {n_bits} bits, {self.bits_remaining} remain",
                bit_position=self._pos,
            )
        value = 0
        for _ in range(n_bits):
            byte = self._data[self._pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self._pos & 7))) & 1)
            self._pos += 1
        return value

    def read_bit(self) -> int:
        return self.read_bits(1)

    def peek_bits(self, n_bits: int) -> int:
        saved = self._pos
        available = min(n_bits, self.bits_remaining)
        value = self.read_bits(available)
        self._pos = saved
        return value << (n_bits - available)

    def read_ue(self) -> int:
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


@cache
def _codewords(table) -> dict[str, object]:
    return {
        format(code, f"0{length}b"): symbol
        for symbol, (code, length) in table.codes.items()
    }


def tree_decode(table, reader: SerialBitReader):
    """Walk the code tree of ``table`` one bit at a time."""
    codewords = _codewords(table)
    prefix = ""
    for _ in range(table.max_length + 1):
        prefix += str(reader.read_bit())
        if prefix in codewords:
            return codewords[prefix]
        if not any(code.startswith(prefix) for code in codewords):
            break  # no code continues this prefix
    raise VlcError("invalid VLC codeword", bit_position=reader.bit_position)


def serial_coefficient_event(reader: SerialBitReader) -> tuple[int, int, int]:
    """:func:`repro.codec.vlc.decode_coefficient_event`, bit-serially."""
    symbol = tree_decode(COEFF_TABLE, reader)
    if symbol == ESCAPE:
        last = reader.read_bit()
        run = reader.read_bits(6)
        sign = reader.read_bit()
        magnitude = reader.read_bits(12)
        return last, run, -magnitude if sign else magnitude
    last, run, magnitude = symbol
    sign = reader.read_bit()
    return last, run, -magnitude if sign else magnitude
