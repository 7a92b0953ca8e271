"""MPEG-4 visual codec (encoder + decoder), built from scratch.

Implements the structural features of the MPEG-4 video profile that the
paper's workload (the MoMuSys ISO reference software) exercises:

- the VO/VOL/VOP object model with I/P/B VOPs and out-of-temporal-order
  coding (:mod:`repro.codec.types`);
- 16x16 macroblocks over 8x8 DCT blocks with quantization, zigzag
  scanning, run-level VLC and intra DC prediction;
- full-search +/-16 SAD motion estimation with half-pel refinement and
  block motion compensation (:mod:`repro.codec.motion`);
- binary shape coding with context-based arithmetic encoding and
  repetitive padding for arbitrary shapes;
- multi-layer (scalable) VOLs (:mod:`repro.codec.scalability`);
- a startcode-delimited bitstream (:mod:`repro.codec.bitstream`).

Every encode is decodable: ``decode(encode(x))`` reconstructs exactly the
encoder's local reconstruction (bit-exact drift-free loop).
"""

from repro.codec.decoder import VopDecoder
from repro.codec.encoder import VopEncoder
from repro.codec.errors import (
    ArithCoderError,
    BitstreamError,
    DecodeBudgetExceededError,
    HeaderError,
    MalformedStreamError,
    ShapeError,
    TruncatedStreamError,
    VlcError,
)
from repro.codec.types import CodecConfig, VopType

__all__ = [
    "ArithCoderError",
    "BitstreamError",
    "CodecConfig",
    "DecodeBudgetExceededError",
    "HeaderError",
    "MalformedStreamError",
    "ShapeError",
    "TruncatedStreamError",
    "VlcError",
    "VopDecoder",
    "VopEncoder",
    "VopType",
]
