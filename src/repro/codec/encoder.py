"""MPEG-4 visual encoder (one video object layer).

Structure follows the MoMuSys reference encoder that the paper measures:

- sequence layer: VO/VOL headers, GOP scheduling with out-of-temporal-order
  coding of B-VOPs (display ``I B1 B2 P`` codes as ``I P B1 B2``);
- VOP layer (``VopCode()`` in MoMuSys, phase ``vop_encode`` in our traces):
  optional binary shape coding, then the macroblock loop;
- macroblock layer: full-search motion estimation with half-pel refinement
  against the expanded past (and, for B-VOPs, future) reference stores,
  intra/inter mode decision, 8x8 DCT + quantization + zigzag + run-level
  VLC of texture, motion-vector prediction and coding, reconstruction.

Every kernel call site has a trace hook (``self._rec``); with no recorder
attached the encoder runs pure NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.codec import vlc
from repro.codec.batched import (
    bidirectional_predict,
    dequantize_blocks,
    gather_plane_blocks,
    intra_decisions,
    predict_many,
    quantize_blocks,
    search_plane,
    store_macroblocks,
)
from repro.codec.bitstream import (
    MOTION_MARKER_STARTCODE,
    RESYNC_STARTCODE,
    SEQUENCE_END_CODE,
    VO_STARTCODE,
    VOL_STARTCODE,
    VOP_STARTCODE,
    BitWriter,
)
from repro.codec.dct import forward_dct, inverse_dct
from repro.codec.engine import ENGINE_BATCHED, IDCT_FIXED, codec_engine, codec_idct
from repro.codec.fastidct import inverse_dct_fixed
from repro.codec.framestore import BORDER, FrameStore
from repro.codec.motion import (
    MotionVector,
    PredictionMode,
    ZERO_MV,
    compensate,
    full_search,
    half_pel_refine,
    intra_inter_decision,
    median_mv,
)
from repro.codec.padding import repetitive_pad
from repro.codec.predict import (
    AC_LINE,
    DEFAULT_DC,
    FROM_ABOVE,
    AcDcPredictor,
    DcPredictor,
)
from repro.codec.quant import (
    dequantize_any,
    quantize_any,
    run_level_arrays,
    run_level_events,
    zigzag_scan,
)
from repro.codec.ratecontrol import make_controller
from repro.codec.shape import encode_shape_plane
from repro.codec.types import CodecConfig, SequenceStats, VopStats, VopType, coding_order
from repro.video.quality import psnr
from repro.video.yuv import MB_SIZE, YuvFrame

#: Offsets of the four 8x8 luma blocks inside a macroblock, in block order.
LUMA_BLOCK_OFFSETS = ((0, 0), (0, 8), (8, 0), (8, 8))

#: Coded-block-pattern bit of each block (Y0..Y3, U, V).
_CBP_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.int64)


def _plane_prediction(blocks: np.ndarray, rows_per_mb: int, resync: bool):
    """Adaptive DC/AC prediction over one plane's (H, W, 8, 8) block grid.

    The whole-plane form of :meth:`AcDcPredictor.predict_with_direction
    <repro.codec.predict.DcPredictor.predict_with_direction>` and
    :meth:`~repro.codec.predict.AcDcPredictor.predict_ac` for an I-VOP,
    where every earlier block is intra and stored unpredicted.  Left
    neighbours exist from column 1 on; above neighbours from row 1 on,
    and with ``resync`` only inside the same macroblock row
    (``rows_per_mb`` block rows).  Unavailable neighbours read
    ``DEFAULT_DC`` and a zero AC line.  Returns int64 ``(predicted_dc,
    from_above, predicted_ac, actual_ac)``, the last two being the
    predicted and the block's own first row (from above) or first column
    (from the left).
    """
    height, width = blocks.shape[:2]
    dc = blocks[:, :, 0, 0].astype(np.int64)
    first_row = blocks[:, :, 0, 1:8].astype(np.int64)
    first_col = blocks[:, :, 1:8, 0].astype(np.int64)
    block_row = np.arange(height)[:, None]
    has_left = np.broadcast_to(np.arange(width)[None, :] > 0, (height, width))
    has_above = block_row > 0
    if resync:
        has_above = has_above & (block_row % rows_per_mb != 0)
    has_above = np.broadcast_to(has_above, (height, width))
    padded = np.full((height + 1, width + 1), DEFAULT_DC, dtype=np.int64)
    padded[1:, 1:] = dc
    left = np.where(has_left, padded[1:, :-1], DEFAULT_DC)
    above = np.where(has_above, padded[:-1, 1:], DEFAULT_DC)
    above_left = np.where(has_above & has_left, padded[:-1, :-1], DEFAULT_DC)
    # Ties go left, as in predict_with_direction.
    from_above = np.abs(above_left - left) < np.abs(above_left - above)
    ac_above = np.zeros_like(first_row)
    ac_above[1:] = first_row[:-1]
    ac_left = np.zeros_like(first_col)
    ac_left[:, 1:] = first_col[:, :-1]
    from_above_line = from_above[..., None]
    return (
        np.where(from_above, above, left),
        from_above,
        np.where(
            from_above_line,
            ac_above * has_above[..., None],
            ac_left * has_left[..., None],
        ),
        np.where(from_above_line, first_row, first_col),
    )


def _blocks_of_mbs(luma: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-plane block grids, (2 rows, 2 cols, ...) luma and (rows, cols,
    ...) chroma, as one (rows, cols, 6, ...) array in macroblock block order."""
    rows, cols = u.shape[:2]
    tail = luma.shape[2:]
    y = luma.reshape(rows, 2, cols, 2, *tail).swapaxes(1, 2).reshape(rows, cols, 4, *tail)
    return np.concatenate([y, u[:, :, None], v[:, :, None]], axis=2)


@dataclass
class EncodedSequence:
    """Encoder output: the bitstream plus reconstructions and statistics."""

    data: bytes
    config: CodecConfig
    stats: SequenceStats
    reconstructions: list[YuvFrame] = field(default_factory=list)  # display order
    masks: list[np.ndarray] | None = None

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8


class VopEncoder:
    """Encoder for one video object layer."""

    def __init__(
        self,
        config: CodecConfig,
        recorder=None,
        stream_name: str = "vo0.vol0",
        vo_id: int = 0,
        vol_id: int = 0,
        walk_tables: bool = True,
    ) -> None:
        self.config = config
        self.vo_id = vo_id
        self.vol_id = vol_id
        # The table/metadata working set is per *process*, not per VOL:
        # only the primary (full-frame, base-layer) codec instance walks
        # it, once per frame -- auxiliary VOs and enhancement layers share
        # the same structures in the reference software.
        self.walk_tables = walk_tables
        self._rec = recorder
        self._tk = None if recorder is None else recorder.kernels
        name = stream_name
        self._cur = FrameStore(config.width, config.height, f"{name}.cur", recorder)
        self._anchors = [
            FrameStore(config.width, config.height, f"{name}.anchor0", recorder),
            FrameStore(config.width, config.height, f"{name}.anchor1", recorder),
        ]
        self._bwork = FrameStore(config.width, config.height, f"{name}.bvop", recorder)
        self._stream_region = None
        self._input_region = None
        self._alpha_region = None
        if recorder is not None:
            frame_bytes = config.width * config.height * 3 // 2
            self._stream_region = recorder.map_linear(f"{name}.bitstream", frame_bytes * 64)
            self._input_region = recorder.map_linear(f"{name}.input", frame_bytes)
            if config.arbitrary_shape:
                self._alpha_region = recorder.map_linear(
                    f"{name}.alpha", config.width * config.height
                )
            self._aux_ring = [
                recorder.map_linear(f"{name}.aux{i}", frame_bytes) for i in range(3)
            ]
            self._tables_region = (
                recorder.map_linear(f"{name}.tables", 1536 << 10)
                if walk_tables
                else None
            )
            self._interp_region = recorder.map_linear(
                f"{name}.interp", 4 * config.width * config.height
            )
            recorder.configure_rows(config.mb_rows)
        # Anchor bookkeeping: display indices of the two anchor stores.
        self._anchor_display = [-1, -1]
        self._next_anchor_slot = 0
        self._controller = make_controller(config)
        self._recon_idct = inverse_dct

    # -- public API ----------------------------------------------------------

    def encode_sequence(
        self, frames: list[YuvFrame], masks: list[np.ndarray] | None = None
    ) -> EncodedSequence:
        """Encode frames (display order); returns the bitstream + stats.

        ``masks`` (binary alpha planes, one per frame) are required when the
        configuration uses arbitrary shape.
        """
        with obs.span("codec.encode.sequence", frames=len(frames)):
            self.begin_sequence(frames, masks)
            while self.encode_next() is not None:
                pass
            return self.finish_sequence()

    def begin_sequence(
        self, frames: list[YuvFrame], masks: list[np.ndarray] | None = None
    ) -> None:
        """Start an incremental encode (used to interleave multiple VOs).

        Call :meth:`encode_next` once per scheduled VOP, then
        :meth:`finish_sequence`.
        """
        config = self.config
        if config.arbitrary_shape and masks is None:
            raise ValueError("arbitrary-shape VOLs need per-frame alpha masks")
        for frame in frames:
            if (frame.width, frame.height) != (config.width, config.height):
                raise ValueError("all frames must match the configured dimensions")
        self._frames = frames
        self._masks = masks
        self._writer = BitWriter()
        self._write_headers(self._writer, n_frames=len(frames))
        self._schedule = coding_order(len(frames), config.gop_size, config.m_distance)
        self._schedule_pos = 0
        self._seq_stats = SequenceStats()
        self._recons: dict[int, YuvFrame] = {}
        self._out_masks: dict[int, np.ndarray] = {}

    def encode_next(self) -> VopStats | None:
        """Encode the next scheduled VOP; None when the schedule is done."""
        if self._schedule_pos >= len(self._schedule):
            return None
        coded_index = self._schedule_pos
        display, vop_type = self._schedule[coded_index]
        self._schedule_pos += 1
        mask = self._masks[display] if self._masks is not None else None
        with obs.span(
            "codec.encode.vop", type=vop_type.name, display=display
        ):
            vop_stats = self._encode_vop(
                self._writer, self._frames[display], mask, vop_type, display,
                coded_index,
            )
        self._seq_stats.vops.append(vop_stats)
        store = self._store_for(display, vop_type)
        recon = store.to_frame()
        if self.config.arbitrary_shape:
            self._out_masks[display] = mask.copy()
        self._recons[display] = recon
        vop_stats.psnr_y = psnr(self._frames[display].y, recon.y)
        return vop_stats

    def finish_sequence(self) -> EncodedSequence:
        """Terminate the stream and collect the results."""
        if self._schedule_pos < len(self._schedule):
            raise RuntimeError(
                f"{len(self._schedule) - self._schedule_pos} VOPs still unscheduled"
            )
        self._writer.write_startcode(SEQUENCE_END_CODE)
        data = self._writer.getvalue()
        recons = self._recons
        out_masks = self._out_masks
        return EncodedSequence(
            data=data,
            config=self.config,
            stats=self._seq_stats,
            reconstructions=[recons[i] for i in sorted(recons)],
            masks=[out_masks[i] for i in sorted(out_masks)] if out_masks else None,
        )

    # -- sequence/VOP layers ---------------------------------------------------

    def _write_headers(self, writer: BitWriter, n_frames: int) -> None:
        config = self.config
        writer.write_startcode(VO_STARTCODE)
        writer.write_ue(self.vo_id)
        writer.write_startcode(VOL_STARTCODE)
        writer.write_ue(self.vol_id)
        writer.write_ue(config.width)
        writer.write_ue(config.height)
        writer.write_bit(1 if config.arbitrary_shape else 0)
        writer.write_bits(config.quant_method, 2)
        writer.write_bit(1 if config.resync_markers else 0)
        if config.resync_markers:
            # The partitioning tools only exist inside video packets, so
            # their header bits ride behind the resync flag (legacy
            # streams without resync markers are bit-identical).
            writer.write_bit(1 if config.data_partitioning else 0)
            writer.write_bit(1 if config.reversible_vlc else 0)
        writer.write_ue(n_frames)

    def _store_for(self, display: int, vop_type: VopType) -> FrameStore:
        if vop_type is VopType.B:
            return self._bwork
        slot = self._anchor_display.index(display)
        return self._anchors[slot]

    def _encode_vop(
        self,
        writer: BitWriter,
        frame: YuvFrame,
        mask: np.ndarray | None,
        vop_type: VopType,
        display: int,
        coded_index: int,
    ) -> VopStats:
        config = self.config
        rec = self._rec
        qp = self._controller.qp_for(vop_type)
        vop_stats = VopStats(
            vop_type=vop_type, display_index=display, coded_index=coded_index, qp=qp
        )
        bits_before = writer.bit_position

        # Load the input frame into the current store ("other" phase: frame
        # I/O sits outside VopCode() in the reference encoder).
        if rec is not None:
            rec.begin_vop(coded_index, vop_type.name, display)
            self._tk.plane_copy(
                rec, self._input_region, self._cur.fmap, config.width, config.height
            )
        self._cur.load(frame)

        if rec is not None:
            rec.push_phase("vop_encode")
            if self._tables_region is not None:
                self._tk.metadata_walk(rec, self._tables_region)

        if config.arbitrary_shape:
            # Pad the input VOP so boundary macroblocks have defined pixels.
            self._pad_store(self._cur, mask)

        writer.write_startcode(VOP_STARTCODE)
        writer.write_bits(vop_type.value, 2)
        writer.write_ue(display)
        writer.write_bits(qp, 5)

        if config.arbitrary_shape:
            shape_stats = encode_shape_plane(writer, mask)
            if rec is not None:
                self._tk.shape_code(rec, self._alpha_region, shape_stats, decode=False)

        # Reference selection.
        past, future = self._references(display, vop_type)

        # Target store for the reconstruction.
        if vop_type is VopType.B:
            recon_store = self._bwork
        else:
            slot = self._next_anchor_slot
            # An I/P anchor replaces the *older* anchor; B-VOPs between the
            # two anchors were already coded (coded order!), so it is free.
            recon_store = self._anchors[slot]
            self._anchor_display[slot] = display
            self._next_anchor_slot = 1 - slot

        self._encode_macroblocks(
            writer, vop_type, qp, mask, past, future, recon_store, vop_stats
        )
        if rec is not None:
            rec.resume_vop_scope()

        recon_store.expand_borders()
        if rec is not None:
            self._tk.border_expand(rec, recon_store.fmap, config.width, config.height)
        if config.arbitrary_shape and vop_type is not VopType.B:
            # Repetitive padding of the reconstructed reference for MC.
            self._pad_store(recon_store, mask)
            recon_store.expand_borders()

        if rec is not None:
            # Reference-pipeline bookkeeping: buffer copies for every VOP,
            # plus the half-pel interpolated reference build for anchors.
            self._tk.vop_pipeline_overhead(
                rec,
                recon_store.fmap,
                self._aux_ring,
                coded_index,
                self._interp_region if vop_type is not VopType.B else None,
                config.width,
                config.height,
            )
            rec.pop_phase()

        bits = writer.bit_position - bits_before
        vop_stats.bits = bits
        self._controller.update(vop_type, bits)
        if rec is not None:
            self._tk.stream_write(rec, self._stream_region, (bits + 7) // 8)
        return vop_stats

    def _references(self, display: int, vop_type: VopType):
        if vop_type is VopType.I:
            return None, None
        known = [d for d in self._anchor_display if 0 <= d]
        if not known:
            raise ValueError("P/B-VOP encoded before any anchor exists")
        if vop_type is VopType.P:
            past_display = max(d for d in known if d < display)
            past = self._anchors[self._anchor_display.index(past_display)]
            return past, None
        past_display = max(d for d in known if d < display)
        future_display = min((d for d in known if d > display), default=None)
        if future_display is None:
            raise ValueError(f"B-VOP {display} has no future anchor")
        past = self._anchors[self._anchor_display.index(past_display)]
        future = self._anchors[self._anchor_display.index(future_display)]
        return past, future

    def _pad_store(self, store: FrameStore, mask: np.ndarray) -> None:
        rec = self._rec
        store.interior_y[:] = repetitive_pad(store.interior_y, mask)
        chroma_mask = mask[::2, ::2]
        store.interior_u[:] = repetitive_pad(store.interior_u, chroma_mask)
        store.interior_v[:] = repetitive_pad(store.interior_v, chroma_mask)
        if rec is not None:
            self._tk.padding_pass(rec, store.fmap, self.config.width, self.config.height)

    # -- macroblock layer ------------------------------------------------------

    def _encode_macroblocks(
        self,
        writer: BitWriter,
        vop_type: VopType,
        qp: int,
        mask: np.ndarray | None,
        past: FrameStore | None,
        future: FrameStore | None,
        recon_store: FrameStore,
        vop_stats: VopStats,
    ) -> None:
        # Arbitrary-shape VOLs keep the per-macroblock loop (transparent
        # MBs make the work data-dependent); everything else defaults to
        # the frame-level batched engine.
        self._recon_idct = (
            inverse_dct_fixed if codec_idct() == IDCT_FIXED else inverse_dct
        )
        if codec_engine() == ENGINE_BATCHED and mask is None:
            self._encode_macroblocks_batched(
                writer, vop_type, qp, past, future, recon_store, vop_stats
            )
        else:
            with obs.span("codec.encode.mb_loop", type=vop_type.name):
                self._encode_macroblocks_reference(
                    writer, vop_type, qp, mask, past, future, recon_store,
                    vop_stats,
                )

    def _encode_macroblocks_reference(
        self,
        writer: BitWriter,
        vop_type: VopType,
        qp: int,
        mask: np.ndarray | None,
        past: FrameStore | None,
        future: FrameStore | None,
        recon_store: FrameStore,
        vop_stats: VopStats,
    ) -> None:
        config = self.config
        mv_grid = [[ZERO_MV] * config.mb_cols for _ in range(config.mb_rows)]
        state = {}

        def on_row(row: int) -> None:
            # Prediction must not cross video packets.
            if vop_type is VopType.I and (row == 0 or config.resync_markers):
                state["dc_preds"] = self._make_dc_predictors()
            state["pred_mvs"] = (ZERO_MV, ZERO_MV)

        def code_mb(writer, texture, row: int, col: int) -> None:
            mb_y, mb_x = row * MB_SIZE, col * MB_SIZE
            if mask is not None and not mask[
                mb_y : mb_y + MB_SIZE, mb_x : mb_x + MB_SIZE
            ].any():
                vop_stats.transparent_mbs += 1
                mv_grid[row][col] = ZERO_MV
                return
            if vop_type is VopType.I:
                self._code_intra_mb(
                    writer, qp, mb_y, mb_x, recon_store, state["dc_preds"], row, col,
                    vop_stats, texture_writer=texture,
                )
            elif vop_type is VopType.P:
                self._code_p_mb(
                    writer, texture, qp, mb_y, mb_x, past, recon_store,
                    mv_grid, row, col, vop_stats,
                )
            else:
                state["pred_mvs"] = self._code_b_mb(
                    writer, texture, qp, mb_y, mb_x, past, future,
                    recon_store, *state["pred_mvs"], vop_stats,
                )

        self._serialize_rows(writer, qp, code_mb, on_row)

    # -- batched (frame-level) macroblock layer --------------------------------

    def _encode_macroblocks_batched(
        self,
        writer: BitWriter,
        vop_type: VopType,
        qp: int,
        past: FrameStore | None,
        future: FrameStore | None,
        recon_store: FrameStore,
        vop_stats: VopStats,
    ) -> None:
        """Frame-level fast path: whole-VOP kernels, per-MB serialization.

        The pixel math (motion search, DCT/quant, reconstruction) runs
        over block tensors covering the entire VOP; only the inherently
        sequential parts -- VLC emission, MV/DC prediction chains and
        trace hooks -- still walk macroblocks, in exactly the reference
        order, so bitstreams, statistics and traces are bit-identical to
        :meth:`_encode_macroblocks_reference`.
        """
        if vop_type is VopType.I:
            self._encode_i_vop_batched(writer, qp, recon_store, vop_stats)
        elif vop_type is VopType.P:
            self._encode_p_vop_batched(writer, qp, past, recon_store, vop_stats)
        else:
            self._encode_b_vop_batched(writer, qp, past, future, recon_store, vop_stats)

    def _gather_mb_tensor(self, store: FrameStore) -> tuple[np.ndarray, np.ndarray]:
        """All macroblocks of a store: (rows, cols, 6, 8, 8) + luma 16x16."""
        config = self.config
        rows, cols = config.mb_rows, config.mb_cols
        y16 = gather_plane_blocks(store.y, BORDER, rows, cols, MB_SIZE)
        u8 = gather_plane_blocks(store.u, BORDER, rows, cols, 8)
        v8 = gather_plane_blocks(store.v, BORDER, rows, cols, 8)
        blocks = np.empty((rows, cols, 6, 8, 8), dtype=np.float64)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            blocks[:, :, index] = y16[:, :, by : by + 8, bx : bx + 8]
        blocks[:, :, 4] = u8
        blocks[:, :, 5] = v8
        return blocks, y16

    def _every_mb(self) -> tuple[np.ndarray, np.ndarray]:
        """The (row, col) of every macroblock, in raster order."""
        mb_rows, mb_cols = self.config.mb_rows, self.config.mb_cols
        return (
            np.repeat(np.arange(mb_rows, dtype=np.int64), mb_cols),
            np.tile(np.arange(mb_cols, dtype=np.int64), mb_rows),
        )

    def _batched_motion(self, ref_store: FrameStore):
        """Whole-VOP motion search against one reference store.

        Returns ``(mv_dx, mv_dy, sads, candidates, search)`` with the
        final (half-pel) displacements.  One call to the C search kernel
        serves traced, untraced and clamped (``search_range > BORDER``)
        searches; ``search`` is its :class:`~repro.codec.batched.PlaneSearch`,
        whose per-MB work model (read counts, row coverage) the trace's
        row emitter reads.
        """
        config = self.config
        search = search_plane(
            ref_store.y, self._cur.y, BORDER, config.mb_rows, config.mb_cols,
            config.search_range, config.use_half_pel,
        )
        return (
            search.dx,
            search.dy,
            search.sad,
            search.candidates + search.evaluated,
            search,
        )

    def _batched_residual_code(self, qp: int, residual: np.ndarray):
        """Transform/quantize (n, 6, 8, 8) residuals and prep their VLC.

        Returns ``(cbp, n_events, starts, payload, levels)``: per-MB coded
        block patterns and event counts (Python lists), the prefix offsets
        of each MB's event span, a payload for
        :meth:`_write_block_events`, and the quantized levels for
        reconstruction.  Non-reversible streams pre-pack every event into
        one (code, length) pair so serialization is a single
        ``write_bits`` per event.
        """
        method = self.config.quant_method
        levels = quantize_blocks(forward_dct(residual), qp, False, method)
        n_mbs = levels.shape[0]
        scanned = zigzag_scan(levels).reshape(n_mbs * 6, 64)
        counts, payload = self._event_payload(scanned)
        counts = counts.reshape(n_mbs, 6)
        cbp = ((counts > 0) * _CBP_WEIGHTS).sum(axis=1)
        n_events = counts.sum(axis=1)
        starts = np.zeros(n_mbs + 1, dtype=np.int64)
        np.cumsum(n_events, out=starts[1:])
        return cbp.tolist(), n_events.tolist(), starts.tolist(), payload, levels

    def _event_payload(self, scanned: np.ndarray):
        """Per-block event counts of (n_blocks, k) scanned levels, and the
        :meth:`_write_block_events` payload of all their events."""
        block_idx, lasts, runs, event_levels = run_level_arrays(scanned)
        counts = np.bincount(block_idx, minlength=scanned.shape[0])
        if self.config.reversible_vlc:
            payload = ("rvlc", lasts.tolist(), runs.tolist(), event_levels.tolist())
        else:
            codes, lengths = vlc.coefficient_event_codes(lasts, runs, event_levels)
            payload = ("packed", codes.tolist(), lengths.tolist())
        return counts, payload

    @staticmethod
    def _write_block_events(
        texture_writer: BitWriter, payload, start: int, stop: int
    ) -> None:
        """Emit one macroblock's span of prepped texture events."""
        if payload[0] == "packed":
            _, codes, lengths = payload
            for index in range(start, stop):
                texture_writer.write_bits(codes[index], lengths[index])
        else:
            _, lasts, runs, levels = payload
            for index in range(start, stop):
                vlc.encode_coefficient_event_rvlc(
                    texture_writer, lasts[index], runs[index], levels[index]
                )

    def _serialize_rows(
        self, writer: BitWriter, qp: int, code_mb, on_row=None, emit_row=None
    ) -> None:
        """Row scaffolding shared by every macroblock encoder.

        Resync markers, per-row prediction resets (``on_row``), the row
        trace hook and data-partition splicing (motion marker + texture
        splice).  A traced encode measures each macroblock's bytes across
        both writers: ``emit_row(row, n_bytes)`` gets a row's byte counts
        after its last macroblock (the batched engine's row emitter);
        without it each macroblock gets its own ``stream_write``.
        """
        config = self.config
        rec = self._rec
        for row in range(config.mb_rows):
            if config.resync_markers and row > 0:
                # One video packet per macroblock row: resync marker plus
                # enough header state (row index, quantizer) to decode the
                # packet independently.  Prediction must not cross packets.
                writer.write_startcode(RESYNC_STARTCODE)
                writer.write_ue(row)
                writer.write_bits(qp, 5)
            if on_row is not None:
                on_row(row)
            if rec is not None:
                rec.begin_mb_row(row)
            # Motion/DC data goes to the packet head, texture events to a
            # side buffer spliced in after the motion marker.
            texture = BitWriter() if config.data_partitioning else writer
            split = texture is not writer
            row_bytes = []
            for col in range(config.mb_cols):
                if rec is None:
                    code_mb(writer, texture, row, col)
                    continue
                bits_before = writer.bit_position + (
                    texture.bit_position if split else 0
                )
                code_mb(writer, texture, row, col)
                bits_after = writer.bit_position + (
                    texture.bit_position if split else 0
                )
                n_bytes = (bits_after - bits_before + 7) // 8
                if emit_row is None:
                    self._tk.stream_write(rec, self._stream_region, n_bytes)
                else:
                    row_bytes.append(n_bytes)
            if emit_row is not None:
                emit_row(row, row_bytes)
            if split:
                writer.write_startcode(MOTION_MARKER_STARTCODE)
                writer.extend(texture)

    def _encode_i_vop_batched(
        self, writer: BitWriter, qp: int, recon_store: FrameStore, vop_stats: VopStats
    ) -> None:
        config = self.config
        method = config.quant_method
        with obs.span("codec.encode.dct_quant"):
            blocks, _ = self._gather_mb_tensor(self._cur)
            levels = quantize_blocks(forward_dct(blocks), qp, True, method)
            recon = self._recon_idct(dequantize_blocks(levels, qp, True, method))
            store_macroblocks(
                recon_store, *self._every_mb(), recon.reshape(-1, 6, 8, 8)
            )
        with obs.span("codec.encode.serialize"):
            self._serialize_i_vop(writer, qp, levels, recon_store, vop_stats)

    def _serialize_i_vop(
        self,
        writer: BitWriter,
        qp: int,
        levels: np.ndarray,
        recon_store: FrameStore | None,
        vop_stats: VopStats,
    ) -> None:
        """Write a whole I-VOP from its quantized (rows, cols, 6, 8, 8) levels.

        :meth:`_plan_intra_vop` predicts and VLC-preps every block at
        once; each macroblock then writes its header, ``ac_pred`` bit, six
        DC differences and event spans.  The bits, statistics and trace
        are those of :meth:`_serialize_intra_mb` run macroblock by
        macroblock with per-packet predictors.  ``recon_store`` is read
        only by the trace.
        """
        mb_cols = self.config.mb_cols
        partitioned = self.config.data_partitioning
        cbp, ac_pred, dc_deltas, n_events, starts, payload = self._plan_intra_vop(levels)

        def code_mb(writer, texture, row: int, col: int) -> None:
            k = row * mb_cols + col
            vlc.encode_macroblock_header(writer, True, False, cbp[k], False)
            if not partitioned:
                writer.write_bit(ac_pred[k])
            for block in range(6 * k, 6 * k + 6):
                writer.write_se(dc_deltas[block])
                self._write_block_events(texture, payload, starts[block], starts[block + 1])
            vop_stats.intra_mbs += 1
            vop_stats.coded_coefficients += n_events[k]

        emit_row = None
        if self._rec is not None:
            events = np.array(n_events, dtype=np.int64).reshape(-1, mb_cols)
            emit_row = self._row_emitter(
                recon_store, (), (),
                np.full(events.shape, self._tk.TEXTURE_INTRA), np.full(events.shape, 6), events,
            )

        self._serialize_rows(writer, qp, code_mb, emit_row=emit_row)

    def _row_emitter(self, recon_store, searched, compensated, kinds, blocks, events):
        """The trace's row emitter for a batched VOP: ``emit_row(row,
        n_bytes)`` for :meth:`_serialize_rows`.

        ``searched`` pairs each reference store searched with its
        :class:`~repro.codec.batched.PlaneSearch`; ``compensated`` each
        reference store compensated from with its per-MB ``dx | dy`` and
        the MBs that use it; ``kinds``, ``blocks`` and ``events`` are the
        per-MB texture kind, coded blocks and events.  All are
        ``(mb_rows, mb_cols)`` grids.
        """
        tk = self._tk

        def emit_row(row: int, n_bytes: list) -> None:
            tk.encode_row(
                self._rec, self._stream_region, row, n_bytes, self._cur.fmap,
                recon_store.fmap, self.config.search_range,
                [(store.fmap, *search.row_work(row)) for store, search in searched],
                [(store.fmap, halfpel[row], used[row]) for store, halfpel, used in compensated],
                (kinds[row], blocks[row], events[row]),
            )

        return emit_row

    def _plan_intra_vop(self, levels: np.ndarray):
        """DC/AC prediction and VLC prep for every block of an I-VOP.

        Prediction reads only the neighbours' *unpredicted* levels (the
        predictors store ``levels``, not the coded values), so all of it
        is known before serialization.  A neighbour is available when it
        lies inside the grid and, with resync markers, in the same
        macroblock row (a video packet starts fresh predictors).  Returns
        per-MB lists ``cbp``, ``ac_pred`` and ``n_events`` (AC events plus
        the six DC terms), per-block ``dc_deltas``, per-block event
        offsets ``starts`` (``6 * n_mbs + 1``) and the payload for
        :meth:`_write_block_events`.
        """
        config = self.config
        rows, cols = levels.shape[:2]
        resync = config.resync_markers
        # Luma blocks on their (2 * rows, 2 * cols) grid; chroma on the MB grid.
        luma = levels[:, :, :4].reshape(rows, cols, 2, 2, 8, 8).swapaxes(1, 2)
        planes = (
            _plane_prediction(luma.reshape(2 * rows, 2 * cols, 8, 8), 2, resync),
            _plane_prediction(levels[:, :, 4], 1, resync),
            _plane_prediction(levels[:, :, 5], 1, resync),
        )
        predicted_dc, from_above, predicted_ac, actual = (
            _blocks_of_mbs(*field) for field in zip(*planes)
        )
        gain = (np.abs(actual).sum(axis=-1) - np.abs(actual - predicted_ac).sum(axis=-1)).sum(
            axis=-1
        )
        if config.data_partitioning:
            ac_pred = np.zeros((rows, cols), dtype=bool)
        else:
            ac_pred = gain > 0
        coded = levels.copy()
        subtract = np.where(ac_pred[:, :, None, None], predicted_ac, 0)
        above = from_above[..., None]
        coded[..., 0, 1:8] -= np.where(above, subtract, 0)
        coded[..., 1:8, 0] -= np.where(above, 0, subtract)
        n_blocks = rows * cols * 6
        scanned = zigzag_scan(coded).reshape(n_blocks, 64)[:, 1:]
        counts, payload = self._event_payload(scanned)
        counts = counts.reshape(rows * cols, 6)
        starts = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        dc_deltas = levels[..., 0, 0].astype(np.int64) - predicted_dc
        return (
            ((counts > 0) * _CBP_WEIGHTS).sum(axis=1).tolist(),
            ac_pred.ravel().astype(np.int64).tolist(),
            dc_deltas.ravel().tolist(),
            (counts.sum(axis=1) + 6).tolist(),
            starts.tolist(),
            payload,
        )

    def _encode_p_vop_batched(
        self,
        writer: BitWriter,
        qp: int,
        past: FrameStore,
        recon_store: FrameStore,
        vop_stats: VopStats,
    ) -> None:
        config = self.config
        rec = self._rec
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        method = config.quant_method
        cur_blocks, y16 = self._gather_mb_tensor(self._cur)
        with obs.span("codec.encode.motion_search"):
            mv_dx, mv_dy, sads, candidates, search = self._batched_motion(past)
        intra_sel = intra_decisions(y16, sads)
        inter_rows, inter_cols = np.nonzero(~intra_sel)
        with obs.span("codec.encode.predict"):
            prediction, _ = predict_many(
                past.y, past.u, past.v,
                inter_rows * MB_SIZE, inter_cols * MB_SIZE,
                mv_dx[inter_rows, inter_cols], mv_dy[inter_rows, inter_cols],
                BORDER,
            )
            residual = cur_blocks[inter_rows, inter_cols] - prediction
        with obs.span("codec.encode.dct_quant"):
            cbp, n_events, starts, payload, levels = self._batched_residual_code(
                qp, residual
            )
            recon = prediction + self._recon_idct(
                dequantize_blocks(levels, qp, False, method)
            )
            store_macroblocks(recon_store, inter_rows, inter_cols, recon)
            # Intra macroblocks reconstruct in batch too (their recon does not
            # depend on prediction state); headers/events serialize below.
            intra_rows, intra_cols = np.nonzero(intra_sel)
            intra_levels = None
            if intra_rows.size:
                intra_levels = quantize_blocks(
                    forward_dct(cur_blocks[intra_rows, intra_cols]), qp, True, method
                )
                store_macroblocks(
                    recon_store, intra_rows, intra_cols,
                    self._recon_idct(dequantize_blocks(intra_levels, qp, True, method)),
                )

        inter_index = np.full((mb_rows, mb_cols), -1, dtype=np.int64)
        inter_index[inter_rows, inter_cols] = np.arange(inter_rows.size)
        intra_index = np.full((mb_rows, mb_cols), -1, dtype=np.int64)
        intra_index[intra_rows, intra_cols] = np.arange(intra_rows.size)
        emit_row = None
        if rec is not None:
            # Every macroblock is searched; intra ones are not compensated,
            # and skipped ones (no coded block, zero vector) have no
            # texture.  Intra MBs fill in their events as they serialize.
            tk = self._tk
            inter = inter_index >= 0
            coded = np.zeros(inter.shape, dtype=np.int64)
            coded[inter] = np.asarray(cbp, dtype=np.int64)[inter_index[inter]]
            events = np.zeros(inter.shape, dtype=np.int64)
            events[inter] = np.asarray(n_events, dtype=np.int64)[inter_index[inter]]
            skipped = inter & (coded == 0) & (mv_dx == 0) & (mv_dy == 0)
            emit_row = self._row_emitter(
                recon_store, [(past, search)], [(past, mv_dx | mv_dy, inter)],
                np.where(
                    intra_sel, tk.TEXTURE_INTRA,
                    np.where(skipped, tk.TEXTURE_NONE, tk.TEXTURE_INTER),
                ),
                np.where(intra_sel, 6, tk.coded_blocks(coded)),
                events,
            )
        inter_index = inter_index.tolist()
        intra_index = intra_index.tolist()
        mv_dx_l, mv_dy_l = mv_dx.tolist(), mv_dy.tolist()
        candidates_l = candidates.tolist()
        mv_grid = [[ZERO_MV] * mb_cols for _ in range(mb_rows)]

        def code_mb(writer, texture, row: int, col: int) -> None:
            vop_stats.sad_candidates += candidates_l[row][col]
            k = inter_index[row][col]
            if k < 0:
                n_ev = self._serialize_intra_mb(
                    writer, texture, intra_levels[intra_index[row][col]],
                    None, row, col, vop_stats, inter_allowed=True,
                )
                mv_grid[row][col] = ZERO_MV
                if rec is not None:
                    events[row, col] = n_ev
                return
            dx, dy = mv_dx_l[row][col], mv_dy_l[row][col]
            mb_cbp = cbp[k]
            if mb_cbp == 0 and dx == 0 and dy == 0:
                vlc.encode_macroblock_header(writer, False, True, 0, inter_allowed=True)
                vop_stats.skipped_mbs += 1
                mv_grid[row][col] = ZERO_MV
                return
            vlc.encode_macroblock_header(
                writer, False, False, mb_cbp, inter_allowed=True
            )
            predictor = self._mv_predictor(
                mv_grid, row, col, cross_row=not config.resync_markers
            )
            vlc.encode_mv_component(writer, dx - predictor.dx)
            vlc.encode_mv_component(writer, dy - predictor.dy)
            mv_grid[row][col] = MotionVector(dx, dy)
            self._write_block_events(texture, payload, starts[k], starts[k + 1])
            vop_stats.inter_mbs += 1
            vop_stats.coded_coefficients += n_events[k]

        with obs.span("codec.encode.serialize"):
            self._serialize_rows(writer, qp, code_mb, emit_row=emit_row)

    def _encode_b_vop_batched(
        self,
        writer: BitWriter,
        qp: int,
        past: FrameStore,
        future: FrameStore,
        recon_store: FrameStore,
        vop_stats: VopStats,
    ) -> None:
        config = self.config
        rec = self._rec
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        method = config.quant_method
        n_mbs = mb_rows * mb_cols
        cur_blocks, y16 = self._gather_mb_tensor(self._cur)
        with obs.span("codec.encode.motion_search", refs=2):
            f_dx, f_dy, f_sad, f_cand, f_search = self._batched_motion(past)
            b_dx, b_dy, b_sad, b_cand, b_search = self._batched_motion(future)
        every_row, every_col = self._every_mb()
        mb_ys, mb_xs = every_row * MB_SIZE, every_col * MB_SIZE
        with obs.span("codec.encode.predict"):
            prediction, luma_f = predict_many(
                past.y, past.u, past.v, mb_ys, mb_xs, f_dx.ravel(), f_dy.ravel(),
                BORDER,
            )
            backward, luma_b = predict_many(
                future.y, future.u, future.v, mb_ys, mb_xs,
                b_dx.ravel(), b_dy.ravel(), BORDER,
            )
            mode = np.empty(n_mbs, dtype=np.int64)
            bidirectional_predict(
                prediction, backward, mode,
                decide=(luma_f, luma_b, y16, f_sad.ravel(), b_sad.ravel()),
            )
            residual = cur_blocks.reshape(n_mbs, 6, 8, 8) - prediction
        with obs.span("codec.encode.dct_quant"):
            cbp, n_events, starts, payload, levels = self._batched_residual_code(
                qp, residual
            )
            recon = prediction + self._recon_idct(
                dequantize_blocks(levels, qp, False, method)
            )
            store_macroblocks(recon_store, every_row, every_col, recon)

        mode_grid = mode.reshape(mb_rows, mb_cols)
        modes = mode_grid.tolist()
        f_dx_l, f_dy_l = f_dx.tolist(), f_dy.tolist()
        b_dx_l, b_dy_l = b_dx.tolist(), b_dy.tolist()
        candidates_l = (f_cand + b_cand).tolist()
        pred_mvs = {"fwd": ZERO_MV, "bwd": ZERO_MV}

        def on_row(row: int) -> None:
            pred_mvs["fwd"] = ZERO_MV
            pred_mvs["bwd"] = ZERO_MV

        def code_mb(writer, texture, row: int, col: int) -> None:
            k = row * mb_cols + col
            dxf, dyf = f_dx_l[row][col], f_dy_l[row][col]
            dxb, dyb = b_dx_l[row][col], b_dy_l[row][col]
            vop_stats.sad_candidates += candidates_l[row][col]
            mode = modes[row][col]
            mb_cbp = cbp[k]
            uses_zero_mvs = (
                mode == PredictionMode.BIDIRECTIONAL.value
                and dxf == 0 and dyf == 0 and dxb == 0 and dyb == 0
            )
            if mb_cbp == 0 and uses_zero_mvs:
                vlc.encode_macroblock_header(writer, False, True, 0, inter_allowed=True)
                vop_stats.skipped_mbs += 1
                return
            vlc.encode_macroblock_header(
                writer, False, False, mb_cbp, inter_allowed=True
            )
            writer.write_bits(mode, 2)
            if mode != PredictionMode.BACKWARD.value:
                vlc.encode_mv_component(writer, dxf - pred_mvs["fwd"].dx)
                vlc.encode_mv_component(writer, dyf - pred_mvs["fwd"].dy)
                pred_mvs["fwd"] = MotionVector(dxf, dyf)
            if mode != PredictionMode.FORWARD.value:
                vlc.encode_mv_component(writer, dxb - pred_mvs["bwd"].dx)
                vlc.encode_mv_component(writer, dyb - pred_mvs["bwd"].dy)
                pred_mvs["bwd"] = MotionVector(dxb, dyb)
            self._write_block_events(texture, payload, starts[k], starts[k + 1])
            vop_stats.inter_mbs += 1
            vop_stats.coded_coefficients += n_events[k]

        emit_row = None
        if rec is not None:
            # Every macroblock is searched and compensated from both
            # references; a skipped one (bidirectional, no coded block,
            # zero vectors) has no texture.
            tk = self._tk
            coded = np.asarray(cbp, dtype=np.int64).reshape(mb_rows, mb_cols)
            bidirectional = mode_grid == PredictionMode.BIDIRECTIONAL.value
            zero = (f_dx == 0) & (f_dy == 0) & (b_dx == 0) & (b_dy == 0)
            every = np.ones((mb_rows, mb_cols), dtype=bool)
            emit_row = self._row_emitter(
                recon_store,
                [(past, f_search), (future, b_search)],
                [(past, f_dx | f_dy, every), (future, b_dx | b_dy, every)],
                np.where(
                    bidirectional & zero & (coded == 0), tk.TEXTURE_NONE, tk.TEXTURE_INTER
                ),
                tk.coded_blocks(coded),
                np.asarray(n_events, dtype=np.int64).reshape(mb_rows, mb_cols),
            )

        with obs.span("codec.encode.serialize"):
            self._serialize_rows(writer, qp, code_mb, on_row, emit_row)

    def _encode_texture_event(
        self, texture_writer: BitWriter, last: int, run: int, level: int
    ) -> None:
        """Texture events use reversible VLC when the stream asks for it."""
        if self.config.reversible_vlc:
            vlc.encode_coefficient_event_rvlc(texture_writer, last, run, level)
        else:
            vlc.encode_coefficient_event(texture_writer, last, run, level)

    def _make_dc_predictors(self) -> dict[str, AcDcPredictor]:
        config = self.config
        return {
            "y": AcDcPredictor(2 * config.mb_rows, 2 * config.mb_cols),
            "u": AcDcPredictor(config.mb_rows, config.mb_cols),
            "v": AcDcPredictor(config.mb_rows, config.mb_cols),
        }

    def _gather_mb(self, store: FrameStore, mb_y: int, mb_x: int) -> np.ndarray:
        """The six 8x8 blocks of a macroblock as a (6, 8, 8) array."""
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cy0 = BORDER + mb_y // 2
        cx0 = BORDER + mb_x // 2
        blocks = np.empty((6, 8, 8), dtype=np.float64)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            blocks[index] = store.y[y0 + by : y0 + by + 8, x0 + bx : x0 + bx + 8]
        blocks[4] = store.u[cy0 : cy0 + 8, cx0 : cx0 + 8]
        blocks[5] = store.v[cy0 : cy0 + 8, cx0 : cx0 + 8]
        return blocks

    def _scatter_mb(
        self, store: FrameStore, mb_y: int, mb_x: int, blocks: np.ndarray
    ) -> None:
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cy0 = BORDER + mb_y // 2
        cx0 = BORDER + mb_x // 2
        pixels = np.clip(np.rint(blocks), 0, 255).astype(np.uint8)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            store.y[y0 + by : y0 + by + 8, x0 + bx : x0 + bx + 8] = pixels[index]
        store.u[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[4]
        store.v[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[5]

    # -- intra ------------------------------------------------------------------

    def _code_intra_mb(
        self,
        writer: BitWriter,
        qp: int,
        mb_y: int,
        mb_x: int,
        recon_store: FrameStore,
        dc_preds: dict[str, DcPredictor] | None,
        row: int,
        col: int,
        vop_stats: VopStats,
        inter_allowed: bool = False,
        texture_writer: BitWriter | None = None,
    ) -> None:
        if texture_writer is None:
            texture_writer = writer
        blocks = self._gather_mb(self._cur, mb_y, mb_x)
        coefficients = forward_dct(blocks)
        levels = quantize_any(coefficients, qp, True, self.config.quant_method)
        n_events = self._serialize_intra_mb(
            writer, texture_writer, levels, dc_preds, row, col, vop_stats,
            inter_allowed,
        )
        recon = np.clip(
            self._recon_idct(
                dequantize_any(levels, qp, True, self.config.quant_method)
            ),
            0,
            255,
        )
        self._scatter_mb(recon_store, mb_y, mb_x, recon)
        if self._rec is not None:
            self._tk.mb_texture(
                self._rec,
                "intra_enc",
                self._cur.fmap,
                recon_store.fmap,
                mb_y,
                mb_x,
                n_coded_blocks=6,
                n_events=n_events,
            )

    def _serialize_intra_mb(
        self,
        writer: BitWriter,
        texture_writer: BitWriter,
        levels: np.ndarray,
        dc_preds: dict[str, DcPredictor] | None,
        row: int,
        col: int,
        vop_stats: VopStats,
        inter_allowed: bool,
    ) -> int:
        """Header, DC/AC prediction and texture events of one intra MB.

        ``levels`` are the quantized (6, 8, 8) coefficients *before* AC
        prediction (the reconstruction path always uses those); returns
        the event count (AC events plus the six DC terms).
        """
        partitioned = texture_writer is not writer

        # Adaptive DC (and, in I-VOPs, AC) prediction.  The per-block
        # direction and prediction lines must be computed before this
        # macroblock's blocks are stored.  Data-partitioned streams keep
        # DC prediction (it is computable from partition 1 alone) but
        # drop AC prediction: the AC lines live in the texture partition,
        # whose loss must not corrupt the motion/DC reconstruction.
        predicted_dc = np.zeros(6, dtype=np.int32)
        directions = np.zeros(6, dtype=np.int32)
        predicted_ac = np.zeros((6, AC_LINE), dtype=np.int32)
        ac_pred_gain = 0
        for index in range(6):
            grid = self._block_grid(dc_preds, index, row, col)
            if grid is None:
                predicted_dc[index] = DEFAULT_DC
                continue
            predictor, block_row, block_col = grid
            dc, direction = predictor.predict_with_direction(block_row, block_col)
            predicted_dc[index] = dc
            directions[index] = direction
            if not partitioned:
                predicted_ac[index] = predictor.predict_ac(
                    block_row, block_col, direction
                )
                actual = self._ac_line(levels[index], direction)
                ac_pred_gain += int(
                    np.abs(actual).sum() - np.abs(actual - predicted_ac[index]).sum()
                )
            predictor.store(block_row, block_col, int(levels[index, 0, 0]))
            predictor.store_ac(
                block_row, block_col, levels[index, 0, 1:8], levels[index, 1:8, 0]
            )
        use_ac_pred = dc_preds is not None and not partitioned and ac_pred_gain > 0

        levels_coded = levels.copy()
        if use_ac_pred:
            for index in range(6):
                self._subtract_ac_line(
                    levels_coded[index], directions[index], predicted_ac[index]
                )
        scanned = zigzag_scan(levels_coded)
        cbp = 0
        block_events = []
        for index in range(6):
            events = run_level_events(scanned[index, 1:])
            block_events.append(events)
            if events:
                cbp |= 1 << (5 - index)
        vlc.encode_macroblock_header(writer, True, False, cbp, inter_allowed)
        if dc_preds is not None and not partitioned:
            writer.write_bit(1 if use_ac_pred else 0)
        for index in range(6):
            dc = int(levels[index, 0, 0])
            writer.write_se(dc - int(predicted_dc[index]))
            for last, run, level in block_events[index]:
                self._encode_texture_event(texture_writer, last, run, level)
        n_events = sum(len(events) for events in block_events) + 6
        vop_stats.intra_mbs += 1
        vop_stats.coded_coefficients += n_events
        return n_events

    @staticmethod
    def _block_grid(dc_preds, index: int, row: int, col: int):
        """(predictor, block_row, block_col) for block ``index``, or None."""
        if dc_preds is None:
            return None
        if index < 4:
            by, bx = divmod(index, 2)
            return dc_preds["y"], 2 * row + by, 2 * col + bx
        plane = "u" if index == 4 else "v"
        return dc_preds[plane], row, col

    @staticmethod
    def _ac_line(block_levels: np.ndarray, direction: int) -> np.ndarray:
        """The predicted AC line of one quantized block."""
        if direction == FROM_ABOVE:
            return block_levels[0, 1:8].copy()
        return block_levels[1:8, 0].copy()

    @staticmethod
    def _subtract_ac_line(block_levels, direction: int, predicted) -> None:
        if direction == FROM_ABOVE:
            block_levels[0, 1:8] -= predicted
        else:
            block_levels[1:8, 0] -= predicted

    # -- inter (P) ---------------------------------------------------------------

    def _motion_search(self, store_ref: FrameStore, mb_y: int, mb_x: int):
        """Full search + optional half-pel refinement in expanded coordinates."""
        config = self.config
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cur_block = self._cur.y[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
        result = full_search(
            cur_block,
            store_ref.y,
            x0,
            y0,
            config.search_range,
            model_work=self._rec is not None,
        )
        halfpel_evals = 0
        if config.use_half_pel:
            refined = half_pel_refine(
                cur_block, store_ref.y, x0, y0, result.mv, result.sad
            )
            halfpel_evals = refined.candidates_evaluated
            final_mv, final_sad = refined.mv, refined.sad
        else:
            final_mv, final_sad = result.mv, result.sad
        if self._rec is not None:
            self._tk.me_search(
                self._rec,
                store_ref.fmap,
                self._cur.fmap,
                mb_y,
                mb_x,
                config.search_range,
                result,
                halfpel_evals,
            )
        return final_mv, final_sad, result.candidates_evaluated + halfpel_evals

    def _predict_mb(
        self, store_ref: FrameStore, mb_y: int, mb_x: int, mv: MotionVector
    ) -> np.ndarray:
        """Motion-compensated prediction for all six blocks: (6, 8, 8)."""
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        luma = compensate(store_ref.y, y0, x0, mv, MB_SIZE)
        cmv = mv.chroma()
        cy0 = BORDER + mb_y // 2
        cx0 = BORDER + mb_x // 2
        u = compensate(store_ref.u, cy0, cx0, cmv, 8)
        v = compensate(store_ref.v, cy0, cx0, cmv, 8)
        prediction = np.empty((6, 8, 8), dtype=np.float64)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            prediction[index] = luma[by : by + 8, bx : bx + 8]
        prediction[4] = u
        prediction[5] = v
        if self._rec is not None:
            self._tk.mc_mb(self._rec, store_ref.fmap, mb_y, mb_x, mv.dx | mv.dy)
        return prediction

    def _code_residual(self, qp: int, residual: np.ndarray):
        """Quantize a (6, 8, 8) residual; returns (cbp, events, n_events, levels)."""
        coefficients = forward_dct(residual)
        levels = quantize_any(coefficients, qp, False, self.config.quant_method)
        scanned = zigzag_scan(levels)
        cbp = 0
        all_events = []
        for index in range(6):
            events = run_level_events(scanned[index])
            all_events.append(events)
            if events:
                cbp |= 1 << (5 - index)
        return cbp, all_events, sum(len(ev) for ev in all_events), levels

    def _code_p_mb(
        self,
        writer: BitWriter,
        texture_writer: BitWriter,
        qp: int,
        mb_y: int,
        mb_x: int,
        past: FrameStore,
        recon_store: FrameStore,
        mv_grid,
        row: int,
        col: int,
        vop_stats: VopStats,
    ) -> None:
        mv, sad, candidates = self._motion_search(past, mb_y, mb_x)
        vop_stats.sad_candidates += candidates
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cur_block = self._cur.y[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
        if intra_inter_decision(cur_block, sad):
            self._code_intra_mb(
                writer, qp, mb_y, mb_x, recon_store, None, row, col, vop_stats,
                inter_allowed=True, texture_writer=texture_writer,
            )
            mv_grid[row][col] = ZERO_MV
            return
        current = self._gather_mb(self._cur, mb_y, mb_x)
        prediction = self._predict_mb(past, mb_y, mb_x, mv)
        residual = current - prediction
        cbp, all_events, n_events, levels = self._code_residual(qp, residual)
        if cbp == 0 and mv.is_zero:
            vlc.encode_macroblock_header(writer, False, True, 0, inter_allowed=True)
            vop_stats.skipped_mbs += 1
            mv_grid[row][col] = ZERO_MV
            self._scatter_mb(recon_store, mb_y, mb_x, prediction)
            return
        vlc.encode_macroblock_header(writer, False, False, cbp, inter_allowed=True)
        predictor = self._mv_predictor(
            mv_grid, row, col, cross_row=not self.config.resync_markers
        )
        vlc.encode_mv_component(writer, mv.dx - predictor.dx)
        vlc.encode_mv_component(writer, mv.dy - predictor.dy)
        mv_grid[row][col] = mv
        for events in all_events:
            for last, run, level in events:
                self._encode_texture_event(texture_writer, last, run, level)
        vop_stats.inter_mbs += 1
        vop_stats.coded_coefficients += n_events
        recon = prediction + self._recon_idct(
            dequantize_any(levels, qp, False, self.config.quant_method)
        )
        self._scatter_mb(recon_store, mb_y, mb_x, np.clip(recon, 0, 255))
        if self._rec is not None:
            self._tk.mb_texture(
                self._rec, "inter_enc", self._cur.fmap, recon_store.fmap,
                mb_y, mb_x, n_coded_blocks=bin(cbp).count("1"), n_events=n_events,
            )

    @staticmethod
    def _mv_predictor(
        mv_grid, row: int, col: int, cross_row: bool = True
    ) -> MotionVector:
        """Median MV predictor; ``cross_row=False`` blocks prediction across
        video-packet (macroblock-row) boundaries."""
        left = mv_grid[row][col - 1] if col > 0 else ZERO_MV
        above = mv_grid[row - 1][col] if row > 0 and cross_row else ZERO_MV
        if row > 0 and cross_row and col + 1 < len(mv_grid[0]):
            above_right = mv_grid[row - 1][col + 1]
        else:
            above_right = ZERO_MV
        return median_mv(left, above, above_right)

    # -- inter (B) ---------------------------------------------------------------

    def _code_b_mb(
        self,
        writer: BitWriter,
        texture_writer: BitWriter,
        qp: int,
        mb_y: int,
        mb_x: int,
        past: FrameStore,
        future: FrameStore,
        recon_store: FrameStore,
        pred_fwd: MotionVector,
        pred_bwd: MotionVector,
        vop_stats: VopStats,
    ):
        mv_f, sad_f, candidates_f = self._motion_search(past, mb_y, mb_x)
        mv_b, sad_b, candidates_b = self._motion_search(future, mb_y, mb_x)
        vop_stats.sad_candidates += candidates_f + candidates_b
        current = self._gather_mb(self._cur, mb_y, mb_x)
        prediction_f = self._predict_mb(past, mb_y, mb_x, mv_f)
        prediction_b = self._predict_mb(future, mb_y, mb_x, mv_b)
        prediction_bi = (prediction_f + prediction_b + 1.0) // 2
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cur_luma = self._cur.y[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE].astype(np.int32)
        sad_bi = self._luma_sad(cur_luma, prediction_bi)
        best = min(
            (sad_f, PredictionMode.FORWARD),
            (sad_b, PredictionMode.BACKWARD),
            (sad_bi, PredictionMode.BIDIRECTIONAL),
            key=lambda item: item[0],
        )[1]
        if best is PredictionMode.FORWARD:
            prediction = prediction_f
        elif best is PredictionMode.BACKWARD:
            prediction = prediction_b
        else:
            prediction = prediction_bi
        residual = current - prediction
        cbp, all_events, n_events, levels = self._code_residual(qp, residual)
        uses_zero_mvs = (
            best is PredictionMode.BIDIRECTIONAL and mv_f.is_zero and mv_b.is_zero
        )
        if cbp == 0 and uses_zero_mvs:
            vlc.encode_macroblock_header(writer, False, True, 0, inter_allowed=True)
            vop_stats.skipped_mbs += 1
            self._scatter_mb(recon_store, mb_y, mb_x, prediction)
            return pred_fwd, pred_bwd
        vlc.encode_macroblock_header(writer, False, False, cbp, inter_allowed=True)
        writer.write_bits(best.value, 2)
        if best in (PredictionMode.FORWARD, PredictionMode.BIDIRECTIONAL):
            vlc.encode_mv_component(writer, mv_f.dx - pred_fwd.dx)
            vlc.encode_mv_component(writer, mv_f.dy - pred_fwd.dy)
            pred_fwd = mv_f
        if best in (PredictionMode.BACKWARD, PredictionMode.BIDIRECTIONAL):
            vlc.encode_mv_component(writer, mv_b.dx - pred_bwd.dx)
            vlc.encode_mv_component(writer, mv_b.dy - pred_bwd.dy)
            pred_bwd = mv_b
        for events in all_events:
            for last, run, level in events:
                self._encode_texture_event(texture_writer, last, run, level)
        vop_stats.inter_mbs += 1
        vop_stats.coded_coefficients += n_events
        recon = prediction + self._recon_idct(
            dequantize_any(levels, qp, False, self.config.quant_method)
        )
        self._scatter_mb(recon_store, mb_y, mb_x, np.clip(recon, 0, 255))
        if self._rec is not None:
            self._tk.mb_texture(
                self._rec, "inter_enc", self._cur.fmap, recon_store.fmap,
                mb_y, mb_x, n_coded_blocks=bin(cbp).count("1"), n_events=n_events,
            )
        return pred_fwd, pred_bwd

    @staticmethod
    def _luma_sad(cur_luma: np.ndarray, prediction: np.ndarray) -> int:
        luma = np.empty((MB_SIZE, MB_SIZE), dtype=np.float64)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            luma[by : by + 8, bx : bx + 8] = prediction[index]
        return int(np.abs(cur_luma - luma).sum())
