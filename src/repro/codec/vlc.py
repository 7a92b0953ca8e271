"""Variable-length coding for the macroblock layer.

MPEG-4 codes quantized DCT coefficients as (LAST, RUN, LEVEL) events with
the Huffman table of Annex B (table B-16) plus escape codes, and motion
vector differences with table B-12.  We reproduce the *structure* exactly
-- event alphabet, escape mechanism, sign handling, self-delimiting
prefix-free codes -- with a canonical Huffman table generated from a
representative frequency model instead of transcribing the normative
tables digit-for-digit.  Bit counts land close to the reference tables
(short codes for short runs and small levels) and round-trip exactly,
which is what the study needs: the decoder's bitstream *scan behaviour*
and the encode/decode instruction mix, not standard conformance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.errors import VlcError

#: Escape marker symbol used by :data:`COEFF_TABLE`.
ESCAPE = "escape"

#: Largest run directly representable in the coefficient table.
MAX_TABLE_RUN = 26
#: Largest |level| directly representable (per-run bound shrinks with run).
MAX_TABLE_LEVEL = 12


class HuffmanTable:
    """Deterministic canonical Huffman code over a fixed symbol alphabet.

    Built once at import time; encoding is a dict lookup, decoding a
    multi-level table lookup in the ``huffman_tbl.h`` style: peek the
    longest code's width (rounded up to whole bytes), index one 256-entry
    table per byte until a ``(symbol, length)`` leaf, consume ``length``.
    """

    def __init__(self, weighted_symbols: list[tuple[object, float]]) -> None:
        if len(weighted_symbols) < 2:
            raise ValueError("need at least two symbols")
        lengths = self._code_lengths(weighted_symbols)
        # Canonical ordering: by (length, insertion order).
        order = {symbol: index for index, (symbol, _) in enumerate(weighted_symbols)}
        ordered = sorted(lengths.items(), key=lambda item: (item[1], order[item[0]]))
        self.codes: dict[object, tuple[int, int]] = {}
        code = 0
        previous_length = ordered[0][1]
        for symbol, length in ordered:
            code <<= length - previous_length
            previous_length = length
            self.codes[symbol] = (code, length)
            code += 1
        self.max_length = max(length for _, length in self.codes.values())
        self._width = -(-self.max_length // 8) * 8
        self._lookup = self._build_lookup()

    @staticmethod
    def _code_lengths(weighted_symbols) -> dict[object, int]:
        heap = []
        for index, (symbol, weight) in enumerate(weighted_symbols):
            heapq.heappush(heap, (weight, index, [symbol]))
        lengths = {symbol: 0 for symbol, _ in weighted_symbols}
        counter = len(weighted_symbols)
        while len(heap) > 1:
            w1, _, group1 = heapq.heappop(heap)
            w2, _, group2 = heapq.heappop(heap)
            for symbol in group1 + group2:
                lengths[symbol] += 1
            heapq.heappush(heap, (w1 + w2, counter, group1 + group2))
            counter += 1
        return lengths

    def _build_lookup(self) -> list:
        # Level k indexes bits [8k, 8k + 8) of the window.  An entry is a
        # (symbol, length) leaf, a sub-table list for codes longer than
        # its level, or None where no code lives (never, for a complete
        # Huffman code).
        root: list = [None] * 256
        for symbol, (code, length) in self.codes.items():
            aligned = code << (self._width - length)
            table = root
            shift = self._width - 8
            while length > self._width - shift:
                index = (aligned >> shift) & 0xFF
                if table[index] is None:
                    table[index] = [None] * 256
                table = table[index]
                shift -= 8
            first = (aligned >> shift) & 0xFF
            span = 1 << (self._width - shift - length)
            table[first : first + span] = [(symbol, length)] * span
        return root

    def node_array(self, symbol_code) -> np.ndarray:
        """The decode lookup as rows of 256 int32 nodes, for native decoders.

        Row 0 is the root table.  A leaf is ``symbol_code(symbol) << 8 |
        length``, a sub-table for the next 8 bits is ``-row``, and 0 marks
        a byte where no code lives.
        """
        rows: list = []

        def flatten(table: list) -> int:
            index = len(rows)
            rows.append(None)
            rows[index] = [
                0 if entry is None
                else -flatten(entry) if type(entry) is list
                else symbol_code(entry[0]) << 8 | entry[1]
                for entry in table
            ]
            return index

        flatten(self._lookup)
        return np.array(rows, dtype=np.int32)

    def encode(self, writer: BitWriter, symbol) -> int:
        """Write the code for ``symbol``; returns its bit length."""
        code, length = self.codes[symbol]
        writer.write_bits(code, length)
        return length

    def decode(self, reader: BitReader):
        window = reader.peek_bits(self._width)
        shift = self._width - 8
        entry = self._lookup[window >> shift]
        while type(entry) is list:
            shift -= 8
            entry = entry[(window >> shift) & 0xFF]
        if entry is None:
            raise VlcError("invalid VLC codeword", bit_position=reader.bit_position)
        symbol, length = entry
        reader.consume_code(length)
        return symbol


def _coefficient_weights() -> list[tuple[object, float]]:
    """Frequency model for (last, run, level) events.

    Mirrors the shape of MPEG-4 table B-16: probability decays roughly
    geometrically in run and level, LAST events are rarer than non-LAST,
    and the representable (run, level) region shrinks as run grows.
    """
    weighted: list[tuple[object, float]] = [(ESCAPE, 1e-6)]
    for last in (0, 1):
        last_scale = 1.0 if last == 0 else 0.12
        for run in range(MAX_TABLE_RUN + 1):
            level_bound = max(1, MAX_TABLE_LEVEL - run // 2 - (4 if last else 6))
            for level in range(1, level_bound + 1):
                weight = last_scale * (0.55**run) * (0.42 ** (level - 1))
                weighted.append(((last, run, level), weight))
    return weighted


#: The (LAST, RUN, LEVEL) event table (sign coded separately, as in MPEG-4).
COEFF_TABLE = HuffmanTable(_coefficient_weights())

_COEFF_SYMBOLS = frozenset(
    symbol for symbol, _ in _coefficient_weights() if symbol != ESCAPE
)

#: Escape payload widths (MPEG-4 escape type 3: FLC last/run/level).
ESCAPE_RUN_BITS = 6
ESCAPE_LEVEL_BITS = 12


def encode_coefficient_event(writer: BitWriter, last: int, run: int, level: int) -> None:
    """Write one (LAST, RUN, LEVEL) event; ``level`` is signed, non-zero."""
    if level == 0:
        raise ValueError("coefficient events carry non-zero levels")
    magnitude = abs(level)
    sign = 1 if level < 0 else 0
    symbol = (last, run, magnitude)
    if symbol in _COEFF_SYMBOLS:
        COEFF_TABLE.encode(writer, symbol)
        writer.write_bit(sign)
        return
    COEFF_TABLE.encode(writer, ESCAPE)
    writer.write_bit(last)
    writer.write_bits(run, ESCAPE_RUN_BITS)
    writer.write_bit(sign)
    if magnitude >= (1 << ESCAPE_LEVEL_BITS):
        raise ValueError(f"level magnitude {magnitude} exceeds escape range")
    writer.write_bits(magnitude, ESCAPE_LEVEL_BITS)


def decode_coefficient_event(reader: BitReader) -> tuple[int, int, int]:
    """Read one event; returns (last, run, signed level)."""
    symbol = COEFF_TABLE.decode(reader)
    if symbol == ESCAPE:
        last = reader.read_bit()
        run = reader.read_bits(ESCAPE_RUN_BITS)
        sign = reader.read_bit()
        magnitude = reader.read_bits(ESCAPE_LEVEL_BITS)
        level = -magnitude if sign else magnitude
        return last, run, level
    last, run, magnitude = symbol
    sign = reader.read_bit()
    return last, run, -magnitude if sign else magnitude


def _event_code_arrays() -> tuple["np.ndarray", "np.ndarray"]:
    """Dense (last, run, magnitude) -> (code, length) lookup tables."""
    codes = np.zeros((2, MAX_TABLE_RUN + 1, MAX_TABLE_LEVEL + 1), dtype=np.int64)
    lengths = np.zeros_like(codes)
    for symbol in _COEFF_SYMBOLS:
        last, run, magnitude = symbol
        code, length = COEFF_TABLE.codes[symbol]
        codes[last, run, magnitude] = code
        lengths[last, run, magnitude] = length
    return codes, lengths


_EVENT_CODES, _EVENT_LENGTHS = _event_code_arrays()


def coefficient_event_codes(
    lasts: "np.ndarray", runs: "np.ndarray", levels: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized bitstream prep for (LAST, RUN, LEVEL) events.

    Packs each event's complete wire image -- VLC codeword plus sign bit,
    or the full escape sequence -- into one ``(code, n_bits)`` pair,
    bit-identical to :func:`encode_coefficient_event`.  The batched
    engine computes these for a whole VOP at once; serialization then
    degenerates to one ``write_bits`` call per event.
    """
    lasts = np.asarray(lasts, dtype=np.int64)
    runs = np.asarray(runs, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    if (levels == 0).any():
        raise ValueError("coefficient events carry non-zero levels")
    magnitudes = np.abs(levels)
    signs = (levels < 0).astype(np.int64)
    bounded = (runs <= MAX_TABLE_RUN) & (magnitudes <= MAX_TABLE_LEVEL)
    table_codes = _EVENT_CODES[
        lasts, np.where(bounded, runs, 0), np.where(bounded, magnitudes, 1)
    ]
    table_lengths = _EVENT_LENGTHS[
        lasts, np.where(bounded, runs, 0), np.where(bounded, magnitudes, 1)
    ]
    in_table = bounded & (table_lengths > 0)
    codes = (table_codes << 1) | signs
    lengths = table_lengths + 1
    if not in_table.all():
        if (magnitudes[~in_table] >= (1 << ESCAPE_LEVEL_BITS)).any():
            raise ValueError("level magnitude exceeds escape range")
        escape_code, escape_length = COEFF_TABLE.codes[ESCAPE]
        escaped = (escape_code << 1) | lasts
        escaped = (escaped << ESCAPE_RUN_BITS) | runs
        escaped = (escaped << 1) | signs
        escaped = (escaped << ESCAPE_LEVEL_BITS) | magnitudes
        codes = np.where(in_table, codes, escaped)
        lengths = np.where(
            in_table,
            lengths,
            escape_length + 2 + ESCAPE_RUN_BITS + ESCAPE_LEVEL_BITS,
        )
    return codes, lengths


# -- reversible VLC (error-resilience texture coding) -------------------------
#
# A symmetric interleaved code in the spirit of MPEG-4's RVLC table:
# for an unsigned value v, let code = v + 2, k = bit_length(code) - 1 and
# payload = code - 2^k (the k bits below the leading one).  The codeword
# interleaves the payload bits with '1' separators and ends with a '0'
# terminator:
#
#     b_{k-1} 1 b_{k-2} 1 ... 1 b_0 0
#
# Read forward, a payload bit is always followed by a continuation flag;
# read backward, the terminator comes first and payload bits alternate
# with separators, so the same codeword parses from either end.  Events
# fold LAST and the level sign into the values themselves (rather than
# appending raw bits, which would be unparseable backward):
#
#     rvlc_ue(run * 2 + last), rvlc_ue((|level| - 1) * 2 + sign)

#: Bound on payload bits per RVLC codeword; a conforming event value
#: (run <= 63 folded with a flag, escape-range level) stays far below it.
_RVLC_MAX_PAYLOAD_BITS = 40


def write_rvlc_ue(writer: BitWriter, value: int) -> None:
    """Write one unsigned reversible-VLC codeword."""
    value = int(value)
    if value < 0:
        raise ValueError("write_rvlc_ue takes non-negative values")
    code = value + 2
    k = code.bit_length() - 1
    payload = code - (1 << k)
    writer.write_bit((payload >> (k - 1)) & 1)
    for index in range(k - 2, -1, -1):
        writer.write_bit(1)
        writer.write_bit((payload >> index) & 1)
    writer.write_bit(0)


def read_rvlc_ue(reader: BitReader) -> int:
    """Read one reversible-VLC codeword forward."""
    bits = [reader.read_bit()]
    while reader.read_bit() == 1:
        if len(bits) >= _RVLC_MAX_PAYLOAD_BITS:
            raise VlcError(
                "reversible VLC codeword too long", bit_position=reader.bit_position
            )
        bits.append(reader.read_bit())
    payload = 0
    for bit in bits:
        payload = (payload << 1) | bit
    return (1 << len(bits)) + payload - 2


def read_rvlc_ue_backward(reader) -> int:
    """Read one reversible-VLC codeword backward (``ReverseBitReader``)."""
    if reader.read_bit() != 0:
        raise VlcError(
            "reversible VLC codeword lacks its terminator",
            bit_position=reader.bit_position,
        )
    bits = [reader.read_bit()]  # b_0 first; LSB-first order
    while reader.bits_remaining and reader.peek_bit() == 1:
        if len(bits) >= _RVLC_MAX_PAYLOAD_BITS:
            raise VlcError(
                "reversible VLC codeword too long", bit_position=reader.bit_position
            )
        reader.read_bit()  # separator
        bits.append(reader.read_bit())
    payload = 0
    for index, bit in enumerate(bits):
        payload |= bit << index
    return (1 << len(bits)) + payload - 2


def encode_coefficient_event_rvlc(
    writer: BitWriter, last: int, run: int, level: int
) -> None:
    """Write one (LAST, RUN, LEVEL) event as two reversible codewords."""
    if level == 0:
        raise ValueError("coefficient events carry non-zero levels")
    magnitude = abs(level)
    sign = 1 if level < 0 else 0
    write_rvlc_ue(writer, (run << 1) | (last & 1))
    write_rvlc_ue(writer, ((magnitude - 1) << 1) | sign)


def _unpack_rvlc_event(run_last: int, level_sign: int) -> tuple[int, int, int]:
    last = run_last & 1
    run = run_last >> 1
    sign = level_sign & 1
    magnitude = (level_sign >> 1) + 1
    return last, run, -magnitude if sign else magnitude


def decode_coefficient_event_rvlc(reader: BitReader) -> tuple[int, int, int]:
    """Read one reversible event forward; returns (last, run, signed level)."""
    run_last = read_rvlc_ue(reader)
    level_sign = read_rvlc_ue(reader)
    return _unpack_rvlc_event(run_last, level_sign)


def decode_coefficient_event_rvlc_backward(reader) -> tuple[int, int, int]:
    """Read one reversible event backward; returns (last, run, signed level)."""
    level_sign = read_rvlc_ue_backward(reader)
    run_last = read_rvlc_ue_backward(reader)
    return _unpack_rvlc_event(run_last, level_sign)


@dataclass(frozen=True)
class MacroblockHeader:
    """Decoded macroblock-layer signalling."""

    is_intra: bool
    is_skipped: bool
    cbp: int  # coded-block pattern, one bit per 8x8 block (Y0..Y3, U, V)


#: MCBPC-style table: (is_intra, cbp_chroma) jointly coded.
MCBPC_TABLE = HuffmanTable(
    [
        ((False, 0), 0.50),
        ((False, 1), 0.10),
        ((False, 2), 0.10),
        ((False, 3), 0.06),
        ((True, 0), 0.14),
        ((True, 1), 0.04),
        ((True, 2), 0.04),
        ((True, 3), 0.02),
    ]
)

#: CBPY table: 4-bit luma coded-block pattern.
CBPY_TABLE = HuffmanTable(
    [(pattern, 0.04 + 0.3 * (bin(pattern).count("1") in (0, 4))) for pattern in range(16)]
)


def encode_macroblock_header(
    writer: BitWriter, is_intra: bool, is_skipped: bool, cbp: int, inter_allowed: bool
) -> None:
    """Write not_coded / MCBPC / CBPY, as in the MPEG-4 combined-motion
    macroblock layer."""
    if inter_allowed:
        writer.write_bit(1 if is_skipped else 0)
        if is_skipped:
            return
    elif is_skipped:
        raise ValueError("I-VOP macroblocks cannot be skipped")
    # CBP layout: bits 5..2 are luma blocks Y0..Y3, bit 1 is U, bit 0 is V.
    cbp_chroma = cbp & 0x3
    cbp_luma = (cbp >> 2) & 0xF
    MCBPC_TABLE.encode(writer, (is_intra, cbp_chroma))
    CBPY_TABLE.encode(writer, cbp_luma)


def decode_macroblock_header(reader: BitReader, inter_allowed: bool) -> MacroblockHeader:
    if inter_allowed and reader.read_bit():
        return MacroblockHeader(is_intra=False, is_skipped=True, cbp=0)
    is_intra, cbp_chroma = MCBPC_TABLE.decode(reader)
    cbp_luma = CBPY_TABLE.decode(reader)
    return MacroblockHeader(
        is_intra=is_intra, is_skipped=False, cbp=(cbp_luma << 2) | cbp_chroma
    )


def encode_mv_component(writer: BitWriter, value_half_pel: int) -> None:
    """Motion-vector difference component, in half-pel units.

    Signed Exp-Golomb stands in for table B-12; same support (+/-32 at
    +/-16-pixel search range), same short-codes-for-small-values shape.
    """
    writer.write_se(value_half_pel)


def decode_mv_component(reader: BitReader) -> int:
    return reader.read_se()
