"""Multi-layer (scalable) coding of one video object.

The paper's Tables 6/7 use "three visual objects, two visual object
layers each".  MPEG-4 spatial scalability codes a VO as a base-layer VOL
at reduced resolution plus an enhancement VOL at full resolution whose
VOPs are predicted from the upsampled base reconstruction.  We implement
that scheme directly on top of the single-layer codec:

- base layer: the input downsampled 2x2 and encoded normally;
- enhancement layer: the *residual* between the input and the upsampled
  base reconstruction, shifted into pixel range and coded by the same
  VOP machinery (all-I residual VOPs -- every enhancement VOP is
  independently decodable given its base VOP, which is MPEG-4's
  low-latency enhancement configuration).

The decoder reverses both layers and composes ``upsample(base) +
residual``.  Work and memory therefore scale exactly as the paper
describes: two layers run the full pipeline twice (once at quarter area,
once at full area) over their own frame stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.decoder import VopDecoder
from repro.codec.encoder import EncodedSequence, VopEncoder
from repro.codec.types import CodecConfig, SequenceStats
from repro.video.yuv import MB_SIZE, YuvFrame, downsample_plane, upsample_plane

#: Residuals are shifted by +128 so they fit the codec's 8-bit pixel path.
RESIDUAL_BIAS = 128


def _mb_align(value: int) -> int:
    return (value + MB_SIZE - 1) // MB_SIZE * MB_SIZE


def _pad_plane(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    """Edge-replicate a plane up to (height, width)."""
    pad_y = height - plane.shape[0]
    pad_x = width - plane.shape[1]
    if pad_y == 0 and pad_x == 0:
        return plane
    return np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")


@dataclass
class ScalableEncoded:
    """Two-layer encoding of one video object."""

    base: EncodedSequence
    enhancement: EncodedSequence

    @property
    def total_bits(self) -> int:
        return self.base.total_bits + self.enhancement.total_bits

    @property
    def stats(self) -> SequenceStats:
        merged = SequenceStats()
        merged.vops = list(self.base.stats.vops) + list(self.enhancement.stats.vops)
        return merged


def downsample_frame(frame: YuvFrame, base_width: int, base_height: int) -> YuvFrame:
    """Half-resolution base-layer input, edge-padded to MB-aligned dims.

    Public because the rendition ladder (``codec/renditions.py``) builds
    its reduced-resolution rungs from exactly the base-layer transform
    the scalable coder uses.
    """
    return YuvFrame(
        _pad_plane(downsample_plane(frame.y), base_height, base_width),
        _pad_plane(downsample_plane(frame.u), base_height // 2, base_width // 2),
        _pad_plane(downsample_plane(frame.v), base_height // 2, base_width // 2),
    )


def upsample_frame(frame: YuvFrame, width: int, height: int) -> tuple:
    """2x upsampled base reconstruction, cropped back to the full size.

    Returns raw planes (not a YuvFrame: cropped dims may be mid-padding).
    """
    return (
        upsample_plane(frame.y)[:height, :width],
        upsample_plane(frame.u)[: height // 2, : width // 2],
        upsample_plane(frame.v)[: height // 2, : width // 2],
    )


def _residual_frame(original: YuvFrame, predicted_planes: tuple) -> YuvFrame:
    planes = []
    for (_, orig), pred in zip(original.planes(), predicted_planes):
        residual = orig.astype(np.int16) - pred.astype(np.int16) + RESIDUAL_BIAS
        planes.append(np.clip(residual, 0, 255).astype(np.uint8))
    return YuvFrame(*planes)


def _compose_frame(residual: YuvFrame, predicted_planes: tuple) -> YuvFrame:
    planes = []
    for (_, res), pred in zip(residual.planes(), predicted_planes):
        value = pred.astype(np.int16) + res.astype(np.int16) - RESIDUAL_BIAS
        planes.append(np.clip(value, 0, 255).astype(np.uint8))
    return YuvFrame(*planes)


class ScalableEncoder:
    """Spatially scalable (two-VOL) encoder for one video object."""

    def __init__(
        self,
        config: CodecConfig,
        recorder=None,
        stream_name: str = "vo0",
        enhancement_qp_offset: int = -2,
        walk_tables: bool = True,
    ) -> None:
        self.config = config
        # Base layer at half resolution, padded up to macroblock alignment
        # (720/2 = 360 -> 368); the enhancement layer crops after upsampling.
        self.base_width = _mb_align(config.width // 2)
        self.base_height = _mb_align(config.height // 2)
        base_config = CodecConfig(
            width=self.base_width,
            height=self.base_height,
            qp=config.qp,
            gop_size=config.gop_size,
            m_distance=config.m_distance,
            search_range=max(1, config.search_range // 2),
            use_half_pel=config.use_half_pel,
            target_bitrate=config.target_bitrate,
            frame_rate=config.frame_rate,
            arbitrary_shape=config.arbitrary_shape,
        )
        # Enhancement VOPs predict temporally from previous enhancement
        # reconstructions (P-only GOP, as in MPEG-4 enhancement layers);
        # a finer quantizer keeps the near-flat residuals faithful.
        enh_qp = min(max(config.qp + enhancement_qp_offset, 1), 31)
        enhancement_config = CodecConfig(
            width=config.width,
            height=config.height,
            qp=enh_qp,
            gop_size=config.gop_size,
            m_distance=1,
            search_range=config.search_range,
            use_half_pel=config.use_half_pel,
            target_bitrate=config.target_bitrate,
            frame_rate=config.frame_rate,
            arbitrary_shape=False,
        )
        self.base_encoder = VopEncoder(
            base_config, recorder, f"{stream_name}.vol0", vol_id=0,
            walk_tables=walk_tables,
        )
        self.enhancement_encoder = VopEncoder(
            enhancement_config, recorder, f"{stream_name}.vol1", vol_id=1,
            walk_tables=False,
        )

    def encode_sequence(
        self, frames: list[YuvFrame], masks: list[np.ndarray] | None = None
    ) -> ScalableEncoded:
        """Encode base and enhancement layers for a frame sequence."""
        base_masks = None
        if masks is not None and self.base_encoder.config.arbitrary_shape:
            base_masks = [
                _pad_plane(mask[::2, ::2], self.base_height, self.base_width)
                for mask in masks
            ]
        base = self.base_encoder.encode_sequence(
            [
                downsample_frame(frame, self.base_width, self.base_height)
                for frame in frames
            ],
            base_masks,
        )
        config = self.config
        residuals = [
            _residual_frame(frame, upsample_frame(recon, config.width, config.height))
            for frame, recon in zip(frames, base.reconstructions)
        ]
        enhancement = self.enhancement_encoder.encode_sequence(residuals)
        return ScalableEncoded(base=base, enhancement=enhancement)


class ScalableDecoder:
    """Decoder for :class:`ScalableEncoder` output."""

    def __init__(
        self, recorder=None, stream_name: str = "dec.vo0", walk_tables: bool = True
    ) -> None:
        self.base_decoder = VopDecoder(
            recorder, f"{stream_name}.vol0", walk_tables=walk_tables
        )
        self.enhancement_decoder = VopDecoder(
            recorder, f"{stream_name}.vol1", walk_tables=False
        )

    def decode(self, encoded: ScalableEncoded) -> list[YuvFrame]:
        """Reconstruct full-resolution frames (display order)."""
        base = self.base_decoder.decode_sequence(encoded.base.data)
        enhancement = self.enhancement_decoder.decode_sequence(encoded.enhancement.data)
        width = enhancement.width
        height = enhancement.height
        return [
            _compose_frame(residual, upsample_frame(base_frame, width, height))
            for residual, base_frame in zip(enhancement.frames, base.frames)
        ]
