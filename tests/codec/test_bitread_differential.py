"""Differential test: word-buffered reader and VLC lookup vs the bit-serial oracle.

Random bytes go through random sequences of every bit-reading primitive
on both :class:`BitReader` and :class:`SerialBitReader` (with the
tree-walk Huffman decode).  At every step both must return the same
value and end at the same bit position, or raise the same exception with
the same ``bit_position`` -- error positions are what the tolerant
decoder resynchronizes from, so they are part of the contract.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import vlc
from repro.codec.bitstream import BitReader
from repro.codec.errors import MalformedStreamError, TruncatedStreamError

from .bitread_oracle import SerialBitReader, serial_coefficient_event, tree_decode

TABLES = {
    "coeff": vlc.COEFF_TABLE,
    "mcbpc": vlc.MCBPC_TABLE,
    "cbpy": vlc.CBPY_TABLE,
}


def _apply(reader, op):
    name, arg = op
    if name == "decode":
        table = TABLES[arg]
        if isinstance(reader, SerialBitReader):
            return tree_decode(table, reader)
        return table.decode(reader)
    if name == "coefficient_event":
        if isinstance(reader, SerialBitReader):
            return serial_coefficient_event(reader)
        return vlc.decode_coefficient_event(reader)
    method = getattr(reader, name)
    return method() if arg is None else method(arg)


def _outcome(reader, op):
    try:
        return ("value", _apply(reader, op)), reader.bit_position
    except Exception as error:  # the exception *is* the observed outcome
        return (type(error), getattr(error, "bit_position", None)), reader.bit_position


# Streams mix random bytes with runs of zeros and ones: zero runs reach
# the long and malformed Exp-Golomb prefixes, one runs the longest VLC
# codes (the escape code starts with 19 ones), and short streams put the
# end of the data in the middle of a field.
_chunk = st.one_of(
    st.binary(max_size=6),
    st.integers(1, 12).map(lambda n: b"\x00" * n),
    st.integers(1, 5).map(lambda n: b"\xff" * n),
)
_streams = st.lists(_chunk, max_size=6).map(b"".join)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read_bits"), st.integers(0, 32)),
        st.tuples(st.just("peek_bits"), st.integers(0, 40)),
        st.tuples(
            st.sampled_from(["read_bit", "read_ue", "read_se", "byte_align"]),
            st.none(),
        ),
        st.tuples(st.just("decode"), st.sampled_from(sorted(TABLES))),
        st.tuples(st.just("coefficient_event"), st.none()),
    ),
    min_size=1,
    max_size=24,
)


@given(data=_streams, ops=_ops)
@settings(max_examples=400, deadline=None)
# End of stream inside a VLC codeword and inside an Exp-Golomb value.
@example(data=b"\xff", ops=[("decode", "coeff")])
@example(data=b"\x7f\xff", ops=[("coefficient_event", None)])
@example(data=b"\x01", ops=[("read_ue", None)])
@example(data=b"\x00\x01", ops=[("read_bits", 3), ("read_se", None)])
# Zero prefixes of 31, 32 and 40 bits, complete and cut off.
@example(data=b"\x00\x00\x00\x01" + b"\xff" * 4, ops=[("read_ue", None)])
@example(data=b"\x00" * 4 + b"\x80" + b"\x55" * 4, ops=[("read_ue", None)])
@example(data=b"\x00" * 5 + b"\x80" + b"\xff" * 5, ops=[("read_ue", None)])
@example(data=b"\x00" * 5 + b"\x80\xff", ops=[("read_ue", None)])
# More than 64 zeros: malformed at the start of the code + 65.
@example(data=b"\x00" * 9, ops=[("read_ue", None)])
@example(data=b"\xe0" + b"\x00" * 10, ops=[("read_bits", 3), ("read_ue", None)])
def test_primitives_match_the_serial_oracle(data, ops):
    fast = BitReader(data)
    serial = SerialBitReader(data)
    for op in ops:
        assert _outcome(fast, op) == _outcome(serial, op), op


class TestErrorPositions:
    """The cases the property must reach, pinned on the fast reader."""

    def test_codeword_cut_off_by_the_end_raises_at_the_end(self):
        reader = BitReader(b"\xff")  # a prefix of the escape code
        with pytest.raises(TruncatedStreamError) as excinfo:
            vlc.COEFF_TABLE.decode(reader)
        assert excinfo.value.bit_position == 8 == reader.bit_position

    def test_exp_golomb_cut_off_by_the_end_raises_at_the_end(self):
        reader = BitReader(b"\x00\x01")
        reader.read_bits(3)
        with pytest.raises(TruncatedStreamError) as excinfo:
            reader.read_ue()  # 12 zeros, the one, then 12 more bits needed
        assert excinfo.value.bit_position == 16 == reader.bit_position

    def test_fixed_length_field_past_the_end_raises_at_its_start(self):
        reader = BitReader(b"\xff")
        reader.read_bits(3)
        with pytest.raises(TruncatedStreamError) as excinfo:
            reader.read_bits(6)
        assert excinfo.value.bit_position == 3 == reader.bit_position

    @pytest.mark.parametrize("zeros", [31, 32, 40, 64])
    def test_long_zero_prefixes_decode(self, zeros):
        code = (1 << zeros) | (0x5A5A5A5A5A5A5A5A & ((1 << zeros) - 1))
        length = 2 * zeros + 1  # the zeros, then the code's zeros + 1 bits
        padded = -(-length // 8) * 8
        reader = BitReader((code << (padded - length)).to_bytes(padded // 8, "big"))
        assert reader.read_ue() == code - 1
        assert reader.bit_position == length

    def test_more_than_64_zeros_is_malformed_at_start_plus_65(self):
        reader = BitReader(b"\xe0" + b"\x00" * 10)
        reader.read_bits(3)
        with pytest.raises(MalformedStreamError) as excinfo:
            reader.read_ue()
        assert excinfo.value.bit_position == 3 + 65 == reader.bit_position
