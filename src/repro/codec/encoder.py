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
    full_search_plane,
    gather_plane_blocks,
    half_pel_refine_plane,
    intra_decisions,
    predict_many,
    scatter_plane_blocks,
    search_plane,
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
        self._tk = None
        if recorder is not None:
            from repro.trace import kernels

            self._tk = kernels
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
        batched = codec_engine() == ENGINE_BATCHED and mask is None
        self._recon_idct = (
            inverse_dct_fixed if batched and codec_idct() == IDCT_FIXED else inverse_dct
        )
        if batched:
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

    def _scatter_mb_pixels(self, store: FrameStore, pixels: np.ndarray) -> None:
        """Write a whole VOP of (rows, cols, 6, 8, 8) uint8 blocks."""
        rows, cols = pixels.shape[:2]
        y16 = np.empty((rows, cols, MB_SIZE, MB_SIZE), dtype=np.uint8)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            y16[:, :, by : by + 8, bx : bx + 8] = pixels[:, :, index]
        scatter_plane_blocks(store.y, y16, BORDER)
        scatter_plane_blocks(store.u, pixels[:, :, 4], BORDER)
        scatter_plane_blocks(store.v, pixels[:, :, 5], BORDER)

    def _batched_motion(self, ref_store: FrameStore):
        """Whole-VOP motion search against one reference store.

        Returns ``(mv_dx, mv_dy, sads, candidates, hook_data)`` with the
        final (half-pel) displacements.  One call to the C search kernel
        serves traced, untraced and clamped (``search_range > BORDER``)
        searches; with a trace recorder attached, its per-MB work model
        (read counts, row coverage) is stashed in ``hook_data`` for the
        serializer to emit in reference order.  Without a compiler, a
        traced or clamped search runs the per-macroblock reference search
        and any other runs the NumPy plane sweeps.
        """
        config = self.config
        rec = self._rec
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        search_range = config.search_range
        search = search_plane(
            ref_store.y, self._cur.y, BORDER, mb_rows, mb_cols, search_range,
            config.use_half_pel,
        )
        if search is not None:
            hook_data = search.search_results() if rec is not None else None
            return (
                search.dx,
                search.dy,
                search.sad,
                search.candidates + search.evaluated,
                hook_data,
            )
        if rec is not None or search_range > BORDER:
            mv_dx = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            mv_dy = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            candidates = np.zeros((mb_rows, mb_cols), dtype=np.int64)
            hook_data = [[None] * mb_cols for _ in range(mb_rows)]
            for row in range(mb_rows):
                for col in range(mb_cols):
                    y0 = BORDER + row * MB_SIZE
                    x0 = BORDER + col * MB_SIZE
                    cur_block = self._cur.y[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
                    result = full_search(
                        cur_block, ref_store.y, x0, y0, search_range,
                        model_work=rec is not None,
                    )
                    halfpel_evals = 0
                    final_mv, final_sad = result.mv, result.sad
                    if config.use_half_pel:
                        refined = half_pel_refine(
                            cur_block, ref_store.y, x0, y0, result.mv, result.sad
                        )
                        halfpel_evals = refined.candidates_evaluated
                        final_mv, final_sad = refined.mv, refined.sad
                    mv_dx[row, col] = final_mv.dx
                    mv_dy[row, col] = final_mv.dy
                    sads[row, col] = final_sad
                    candidates[row, col] = result.candidates_evaluated + halfpel_evals
                    hook_data[row][col] = (result, halfpel_evals)
            return mv_dx, mv_dy, sads, candidates, hook_data
        full_dx, full_dy, full_sad = full_search_plane(
            ref_store.y, self._cur.y, BORDER, mb_rows, mb_cols, search_range
        )
        if config.use_half_pel:
            dx, dy, sad, evaluated = half_pel_refine_plane(
                ref_store.y, self._cur.y, BORDER, full_dx, full_dy, full_sad
            )
        else:
            dx = (2 * full_dx).astype(np.int32)
            dy = (2 * full_dy).astype(np.int32)
            sad = full_sad
            evaluated = np.zeros((mb_rows, mb_cols), dtype=np.int32)
        # Unclamped windows (search_range <= BORDER): every MB evaluates
        # the full (2r+1)^2 grid, exactly like the reference search.
        candidates = (2 * search_range + 1) ** 2 + evaluated.astype(np.int64)
        return (
            dx.astype(np.int64),
            dy.astype(np.int64),
            sad.astype(np.int64),
            candidates,
            None,
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
        levels = quantize_any(forward_dct(residual), qp, False, method)
        n_mbs = levels.shape[0]
        scanned = zigzag_scan(levels).reshape(n_mbs * 6, 64)
        block_idx, lasts, runs, event_levels = run_level_arrays(scanned)
        counts = np.bincount(block_idx, minlength=n_mbs * 6).reshape(n_mbs, 6)
        weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.int64)
        cbp = ((counts > 0) * weights).sum(axis=1)
        n_events = counts.sum(axis=1)
        starts = np.zeros(n_mbs + 1, dtype=np.int64)
        np.cumsum(n_events, out=starts[1:])
        if self.config.reversible_vlc:
            payload = ("rvlc", lasts.tolist(), runs.tolist(), event_levels.tolist())
        else:
            codes, lengths = vlc.coefficient_event_codes(lasts, runs, event_levels)
            payload = ("packed", codes.tolist(), lengths.tolist())
        return cbp.tolist(), n_events.tolist(), starts.tolist(), payload, levels

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

    def _serialize_rows(self, writer: BitWriter, qp: int, code_mb, on_row=None) -> None:
        """Row scaffolding shared by every macroblock encoder.

        Resync markers, per-row prediction resets (``on_row``), the row
        trace hook and data-partition splicing (motion marker + texture
        splice), with per-MB ``stream_write`` accounting across both
        writers.
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
            for col in range(config.mb_cols):
                bits_before = writer.bit_position + (
                    texture.bit_position if split else 0
                )
                code_mb(writer, texture, row, col)
                if rec is not None:
                    bits_after = writer.bit_position + (
                        texture.bit_position if split else 0
                    )
                    self._tk.stream_write(
                        rec, self._stream_region, (bits_after - bits_before + 7) // 8
                    )
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
            levels = quantize_any(forward_dct(blocks), qp, True, method)
            recon = self._recon_idct(dequantize_any(levels, qp, True, method))
            pixels = np.clip(np.rint(recon), 0, 255).astype(np.uint8)
            self._scatter_mb_pixels(recon_store, pixels)
        state = {"dc_preds": self._make_dc_predictors()}

        def on_row(row: int) -> None:
            # Prediction must not cross video packets.
            if config.resync_markers and row > 0:
                state["dc_preds"] = self._make_dc_predictors()

        def code_mb(writer, texture, row: int, col: int) -> None:
            n_events = self._serialize_intra_mb(
                writer, texture, levels[row, col], state["dc_preds"], row, col,
                vop_stats, inter_allowed=False,
            )
            if self._rec is not None:
                self._tk.mb_texture(
                    self._rec, "intra_enc", self._cur.fmap, recon_store.fmap,
                    row * MB_SIZE, col * MB_SIZE,
                    n_coded_blocks=6, n_events=n_events,
                )

        with obs.span("codec.encode.serialize"):
            self._serialize_rows(writer, qp, code_mb, on_row)

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
            mv_dx, mv_dy, sads, candidates, hook_data = self._batched_motion(past)
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
                dequantize_any(levels, qp, False, method)
            )
            pixels = np.empty((mb_rows, mb_cols, 6, 8, 8), dtype=np.uint8)
            pixels[inter_rows, inter_cols] = np.clip(np.rint(recon), 0, 255).astype(
                np.uint8
            )
            # Intra macroblocks reconstruct in batch too (their recon does not
            # depend on prediction state); headers/events serialize below.
            intra_rows, intra_cols = np.nonzero(intra_sel)
            intra_levels = None
            if intra_rows.size:
                intra_levels = quantize_any(
                    forward_dct(cur_blocks[intra_rows, intra_cols]), qp, True, method
                )
                intra_recon = self._recon_idct(
                    dequantize_any(intra_levels, qp, True, method)
                )
                pixels[intra_rows, intra_cols] = np.clip(
                    np.rint(intra_recon), 0, 255
                ).astype(np.uint8)
            self._scatter_mb_pixels(recon_store, pixels)

        inter_index = np.full((mb_rows, mb_cols), -1, dtype=np.int64)
        inter_index[inter_rows, inter_cols] = np.arange(inter_rows.size)
        intra_index = np.full((mb_rows, mb_cols), -1, dtype=np.int64)
        intra_index[intra_rows, intra_cols] = np.arange(intra_rows.size)
        inter_index = inter_index.tolist()
        intra_index = intra_index.tolist()
        mv_dx_l, mv_dy_l = mv_dx.tolist(), mv_dy.tolist()
        candidates_l = candidates.tolist()
        mv_grid = [[ZERO_MV] * mb_cols for _ in range(mb_rows)]

        def code_mb(writer, texture, row: int, col: int) -> None:
            mb_y, mb_x = row * MB_SIZE, col * MB_SIZE
            if rec is not None:
                result, halfpel_evals = hook_data[row][col]
                self._tk.me_search(
                    rec, past.fmap, self._cur.fmap, mb_y, mb_x,
                    config.search_range, result, halfpel_evals,
                )
            vop_stats.sad_candidates += candidates_l[row][col]
            k = inter_index[row][col]
            if k < 0:
                n_ev = self._serialize_intra_mb(
                    writer, texture, intra_levels[intra_index[row][col]],
                    None, row, col, vop_stats, inter_allowed=True,
                )
                mv_grid[row][col] = ZERO_MV
                if rec is not None:
                    self._tk.mb_texture(
                        rec, "intra_enc", self._cur.fmap, recon_store.fmap,
                        mb_y, mb_x, n_coded_blocks=6, n_events=n_ev,
                    )
                return
            dx, dy = mv_dx_l[row][col], mv_dy_l[row][col]
            if rec is not None:
                self._tk.mc_mb(rec, past.fmap, mb_y, mb_x, dx | dy)
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
            if rec is not None:
                self._tk.mb_texture(
                    rec, "inter_enc", self._cur.fmap, recon_store.fmap,
                    mb_y, mb_x, n_coded_blocks=bin(mb_cbp).count("1"),
                    n_events=n_events[k],
                )

        with obs.span("codec.encode.serialize"):
            self._serialize_rows(writer, qp, code_mb)

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
            f_dx, f_dy, f_sad, f_cand, f_hooks = self._batched_motion(past)
            b_dx, b_dy, b_sad, b_cand, b_hooks = self._batched_motion(future)
        mb_ys = np.repeat(np.arange(mb_rows, dtype=np.int64) * MB_SIZE, mb_cols)
        mb_xs = np.tile(np.arange(mb_cols, dtype=np.int64) * MB_SIZE, mb_rows)
        with obs.span("codec.encode.predict"):
            pred_f, luma_f = predict_many(
                past.y, past.u, past.v, mb_ys, mb_xs, f_dx.ravel(), f_dy.ravel(),
                BORDER,
            )
            pred_b, luma_b = predict_many(
                future.y, future.u, future.v, mb_ys, mb_xs,
                b_dx.ravel(), b_dy.ravel(), BORDER,
            )
            cur_luma = y16.reshape(n_mbs, MB_SIZE, MB_SIZE).astype(np.int32)
            bi_luma = (luma_f.astype(np.int32) + luma_b.astype(np.int32) + 1) // 2
            sad_bi = np.abs(cur_luma - bi_luma).sum(axis=(1, 2), dtype=np.int64)
            sad_f = f_sad.ravel()
            sad_b = b_sad.ravel()
            # Mode decision replicates Python's min() first-minimum tie-break.
            mode_f = (sad_f <= sad_b) & (sad_f <= sad_bi)
            mode_b = ~mode_f & (sad_b <= sad_bi)
            pred_bi = (pred_f + pred_b + 1.0) // 2
            choose_f = mode_f[:, None, None, None]
            choose_b = mode_b[:, None, None, None]
            prediction = np.where(
                choose_f, pred_f, np.where(choose_b, pred_b, pred_bi)
            )
            residual = cur_blocks.reshape(n_mbs, 6, 8, 8) - prediction
        with obs.span("codec.encode.dct_quant"):
            cbp, n_events, starts, payload, levels = self._batched_residual_code(
                qp, residual
            )
            recon = prediction + self._recon_idct(
                dequantize_any(levels, qp, False, method)
            )
            pixels = (
                np.clip(np.rint(recon), 0, 255)
                .astype(np.uint8)
                .reshape(mb_rows, mb_cols, 6, 8, 8)
            )
            self._scatter_mb_pixels(recon_store, pixels)

        modes = np.where(
            mode_f,
            PredictionMode.FORWARD.value,
            np.where(mode_b, PredictionMode.BACKWARD.value, PredictionMode.BIDIRECTIONAL.value),
        ).reshape(mb_rows, mb_cols).tolist()
        f_dx_l, f_dy_l = f_dx.tolist(), f_dy.tolist()
        b_dx_l, b_dy_l = b_dx.tolist(), b_dy.tolist()
        candidates_l = (f_cand + b_cand).tolist()
        pred_mvs = {"fwd": ZERO_MV, "bwd": ZERO_MV}

        def on_row(row: int) -> None:
            pred_mvs["fwd"] = ZERO_MV
            pred_mvs["bwd"] = ZERO_MV

        def code_mb(writer, texture, row: int, col: int) -> None:
            mb_y, mb_x = row * MB_SIZE, col * MB_SIZE
            k = row * mb_cols + col
            dxf, dyf = f_dx_l[row][col], f_dy_l[row][col]
            dxb, dyb = b_dx_l[row][col], b_dy_l[row][col]
            if rec is not None:
                result_f, evals_f = f_hooks[row][col]
                self._tk.me_search(
                    rec, past.fmap, self._cur.fmap, mb_y, mb_x,
                    config.search_range, result_f, evals_f,
                )
                result_b, evals_b = b_hooks[row][col]
                self._tk.me_search(
                    rec, future.fmap, self._cur.fmap, mb_y, mb_x,
                    config.search_range, result_b, evals_b,
                )
                self._tk.mc_mb(rec, past.fmap, mb_y, mb_x, dxf | dyf)
                self._tk.mc_mb(rec, future.fmap, mb_y, mb_x, dxb | dyb)
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
            if rec is not None:
                self._tk.mb_texture(
                    rec, "inter_enc", self._cur.fmap, recon_store.fmap,
                    mb_y, mb_x, n_coded_blocks=bin(mb_cbp).count("1"),
                    n_events=n_events[k],
                )

        with obs.span("codec.encode.serialize"):
            self._serialize_rows(writer, qp, code_mb, on_row)

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
