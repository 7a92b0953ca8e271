"""The typed BitstreamError hierarchy and the decode resource caps.

The hierarchy is the decoder's public robustness contract: every
rejection is a ``BitstreamError``, and each subclass also inherits the
builtin exception (``ValueError``/``EOFError``) that older callers
already catch -- hardening must not break existing error handling.
"""

from __future__ import annotations

import pytest

from repro.codec import (
    ArithCoderError,
    BitstreamError,
    CodecConfig,
    DecodeBudgetExceededError,
    HeaderError,
    MalformedStreamError,
    ShapeError,
    TruncatedStreamError,
    VlcError,
    VopDecoder,
    VopEncoder,
)
from repro.codec.arith import AdaptiveBinaryModel
from repro.codec.bitstream import (
    VO_STARTCODE,
    VOL_STARTCODE,
    BitReader,
    BitWriter,
)
from repro.codec.decoder import MAX_DIMENSION, MAX_SEQUENCE_PIXELS, MAX_VOPS
from repro.codec.vlc import COEFF_TABLE
from repro.video.yuv import YuvFrame


class TestHierarchy:
    def test_typed_errors_are_bitstream_errors(self):
        for cls in (
            TruncatedStreamError,
            MalformedStreamError,
            HeaderError,
            VlcError,
            ShapeError,
            ArithCoderError,
            DecodeBudgetExceededError,
        ):
            assert issubclass(cls, BitstreamError)

    def test_builtin_compatibility(self):
        """Callers catching the pre-hardening builtins still catch
        everything the hardened decoder raises."""
        assert issubclass(TruncatedStreamError, EOFError)
        for cls in (
            MalformedStreamError,
            HeaderError,
            VlcError,
            ShapeError,
            ArithCoderError,
            DecodeBudgetExceededError,
        ):
            assert issubclass(cls, ValueError)

    def test_bit_position_is_carried(self):
        error = MalformedStreamError("bad", bit_position=137)
        assert error.bit_position == 137
        assert BitstreamError("x").bit_position is None


class TestPrimitiveRejections:
    def test_reading_past_the_end_is_truncation(self):
        reader = BitReader(b"\xff")
        with pytest.raises(TruncatedStreamError) as excinfo:
            reader.read_bits(16)
        assert excinfo.value.bit_position is not None

    def test_unbounded_exp_golomb_is_malformed(self):
        reader = BitReader(b"\x00" * 32)  # 256 leading zeros: no valid code
        with pytest.raises(MalformedStreamError):
            reader.read_ue()

    def test_vlc_decode_on_truncated_stream(self):
        # The canonical table is complete (Kraft equality) so every long
        # enough bit pattern decodes; running dry mid-code is truncation.
        with pytest.raises(TruncatedStreamError):
            COEFF_TABLE.decode(BitReader(b""))

    def test_invalid_vlc_codeword(self):
        from repro.codec.vlc import HuffmanTable

        table = HuffmanTable([(0, 1.0), (1, 1.0)])
        table._lookup[0xFF] = None  # prune a lookup entry: now an incomplete code
        with pytest.raises(VlcError) as excinfo:
            table.decode(BitReader(b"\xff"))
        assert excinfo.value.bit_position is not None

    def test_arith_context_out_of_range(self):
        model = AdaptiveBinaryModel(4)
        with pytest.raises(ArithCoderError):
            model.p_zero(9)


def _header_stream(width: int, height: int, n_frames: int) -> bytes:
    """A syntactically well-formed VO+VOL header claiming the given geometry."""
    writer = BitWriter()
    writer.write_startcode(VO_STARTCODE)
    writer.write_ue(0)  # vo_id
    writer.write_startcode(VOL_STARTCODE)
    writer.write_ue(0)  # vol_id
    writer.write_ue(width)
    writer.write_ue(height)
    writer.write_bit(0)  # rectangular
    writer.write_bits(1, 2)  # quant_method
    writer.write_bit(0)  # no resync markers
    writer.write_ue(n_frames)
    return writer.getvalue()


class TestHeaderCaps:
    """Resource caps that keep hostile headers from reserving gigabytes."""

    def test_oversized_dimension_rejected(self):
        data = _header_stream(MAX_DIMENSION + 16, 32, 1)
        with pytest.raises(HeaderError, match="outside"):
            VopDecoder().decode_sequence(data)

    def test_misaligned_dimension_rejected(self):
        data = _header_stream(33, 32, 1)
        with pytest.raises(HeaderError, match="multiple"):
            VopDecoder().decode_sequence(data)

    def test_vop_count_cap(self):
        data = _header_stream(32, 32, MAX_VOPS + 1)
        with pytest.raises(HeaderError, match="exceeds"):
            VopDecoder().decode_sequence(data)

    def test_sequence_pixel_budget(self):
        width = height = 4096
        n_frames = MAX_SEQUENCE_PIXELS // (width * height) + 1
        assert n_frames <= MAX_VOPS
        data = _header_stream(width, height, n_frames)
        with pytest.raises(HeaderError, match="memory budget"):
            VopDecoder().decode_sequence(data)

    def test_caps_also_hold_in_tolerant_mode(self):
        """Concealment must not conceal a resource-exhaustion header."""
        data = _header_stream(4096, 4096, MAX_VOPS)
        with pytest.raises(HeaderError):
            VopDecoder().decode_sequence(data, tolerate_errors=True)

    def test_legitimate_stream_still_decodes(self):
        config = CodecConfig(32, 32, qp=12, gop_size=2, m_distance=1)
        frames = [YuvFrame.blank(32, 32, luma=90 + 10 * i) for i in range(2)]
        encoded = VopEncoder(config).encode_sequence(frames)
        decoded = VopDecoder().decode_sequence(encoded.data)
        assert len(decoded.frames) == 2
