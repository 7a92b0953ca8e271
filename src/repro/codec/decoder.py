"""MPEG-4 visual decoder (one video object layer).

Mirrors :mod:`repro.codec.encoder` exactly.  The decoder "reads a stream
of bits looking for the unique bit patterns called startcodes" (paper
Section 2.1), follows the encoder's coded order (I, P, B1, B2, ...), and
reorders reconstructed VOPs back into display order -- the out-of-order
decode that "increases the performance and storage requirements for
real-time playback".

The macroblock decode loop is the paper's
``DecodeVopCombMotionShapeTexture()``; it carries the ``vop_decode``
trace phase for the Table 8 burstiness experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec import vlc
from repro.codec.bitstream import (
    MOTION_MARKER_STARTCODE,
    RESYNC_STARTCODE,
    SEQUENCE_END_CODE,
    VO_STARTCODE,
    VOL_STARTCODE,
    VOP_STARTCODE,
    BitReader,
    ReverseBitReader,
)
from repro.codec.batched import (
    F_BWD,
    F_BWD_DX,
    F_BWD_DY,
    F_CBP,
    F_FWD,
    F_FWD_DX,
    F_FWD_DY,
    F_KIND,
    F_N_EVENTS,
    KIND_INTER,
    KIND_INTRA,
    MacroblockRows,
    bidirectional_predict,
    dequantize_blocks,
    predict_many,
    store_macroblocks,
)
from repro.codec.dct import inverse_dct
from repro.codec.encoder import LUMA_BLOCK_OFFSETS
from repro.codec.engine import ENGINE_BATCHED, IDCT_FIXED, codec_engine, codec_idct
from repro.codec.fastidct import inverse_dct_fixed
from repro.codec.errors import (
    BitstreamError,
    DecodeBudgetExceededError,
    HeaderError,
    MalformedStreamError,
    PartitionError,
)
from repro.codec.framestore import BORDER, FrameStore
from repro.codec.motion import MotionVector, PredictionMode, ZERO_MV, compensate, median_mv
from repro.codec.padding import repetitive_pad
from repro.codec.predict import DEFAULT_DC, FROM_ABOVE, AcDcPredictor
from repro.codec.quant import (
    ZIGZAG,
    dequantize_any,
    events_to_levels,
    validate_qp,
)
from repro.codec.shape import decode_shape_plane
from repro.codec.types import VopStats, VopType
from repro import obs
from repro.video.yuv import MB_SIZE, YuvFrame

#: Hard ceilings a VOL header must respect before the decoder allocates
#: anything.  Far above every workload in the study (the largest cell is
#: 2048x1024 x 30 frames) but low enough that a corrupt header cannot
#: drive a multi-gigabyte allocation or an hours-long concealment loop.
MAX_DIMENSION = 8192
MAX_VOPS = 4096
MAX_SEQUENCE_PIXELS = 1 << 30

#: Per-VOP decode budget: generous payload ceiling (a conforming stream
#: peaks well under 40 bits/pixel even fully escape-coded) plus a floor
#: for tiny frames.  Exceeding it means the stream is damaged in a way
#: that keeps producing decodable-looking symbols without terminating.
VOP_BITS_PER_PIXEL_BUDGET = 64
VOP_BIT_BUDGET_FLOOR = 1 << 16

#: A single 8x8 block has 64 coefficients, so no conforming block carries
#: more run-level events than that.
MAX_EVENTS_PER_BLOCK = 64

#: Raster index (8 * row + column) of each zigzag scan position.
_RASTER_OF_SCAN = ZIGZAG.tolist()


@dataclass
class DecodedSequence:
    """Decoder output, reordered to display order."""

    frames: list[YuvFrame]
    masks: list[np.ndarray] | None
    vop_stats: list[VopStats] = field(default_factory=list)  # coded order
    width: int = 0
    height: int = 0
    #: Whole frames repeated/blanked because their VOP never decoded.
    concealed_frames: int = 0

    @property
    def concealment_events(self) -> int:
        """Total concealment actions taken during the decode: concealed
        frames, lost video packets, and texture-concealed macroblocks."""
        return self.concealed_frames + sum(
            stats.lost_packets + stats.texture_concealed_mbs
            for stats in self.vop_stats
        )

    @property
    def is_clean(self) -> bool:
        """True when no concealment of any kind happened."""
        return self.concealment_events == 0


class VopDecoder:
    """Decoder for one video object layer's bitstream."""

    def __init__(
        self,
        recorder=None,
        stream_name: str = "dec.vo0.vol0",
        walk_tables: bool = True,
    ) -> None:
        self.walk_tables = walk_tables
        self._rec = recorder
        self._tk = None if recorder is None else recorder.kernels
        self._stream_name = stream_name
        self.width = 0
        self.height = 0
        self.arbitrary_shape = False
        self._anchors: list[FrameStore] = []
        self._anchor_display = [-1, -1]
        self._next_anchor_slot = 0
        self._bwork: FrameStore | None = None
        self._stream_region = None
        self._output_region = None
        self._recon_idct = inverse_dct
        self._tolerate_errors = False
        self._n_frames = 0

    def decode_sequence(
        self, data: bytes, tolerate_errors: bool = False
    ) -> DecodedSequence:
        """Decode a full VOL bitstream produced by the encoder.

        With ``tolerate_errors=True`` (and a stream coded with resync
        markers), bitstream corruption inside a video packet loses only
        that packet: the decoder scans to the next resync marker and
        conceals the lost macroblock rows from the reference frame.
        """
        self._tolerate_errors = tolerate_errors
        with obs.span("codec.decode.sequence", bytes=len(data)):
            return self._decode_sequence_inner(data, tolerate_errors)

    def _decode_sequence_inner(
        self, data: bytes, tolerate_errors: bool
    ) -> DecodedSequence:
        reader = BitReader(data)
        n_frames = self._read_headers(reader)
        self._allocate_stores()
        frames: dict[int, YuvFrame] = {}
        masks: dict[int, np.ndarray] = {}
        stats: list[VopStats] = []
        coded_index = 0
        while True:
            suffix = reader.next_startcode()
            if suffix is None or suffix == SEQUENCE_END_CODE:
                break
            if suffix != VOP_STARTCODE:
                if tolerate_errors:
                    continue  # skip unexpected sections, keep scanning
                raise HeaderError(f"unexpected startcode 0x{suffix:02x} in VOL stream")
            try:
                with obs.span("codec.decode.vop", coded=coded_index):
                    frame, mask, vop_stats = self._decode_vop(reader, coded_index)
            except Exception as error:
                if not tolerate_errors:
                    if isinstance(error, BitstreamError):
                        raise
                    # Corruption that surfaced as a raw exception deeper in
                    # the pipeline (bad array shape, impossible reference,
                    # ...) still honours the typed-error contract.
                    raise MalformedStreamError(
                        f"corrupt VOP payload: {error!r}",
                        bit_position=reader.bit_position,
                    ) from error
                # The VOP header itself was damaged: drop the whole VOP
                # (concealed below) and resynchronize at the next section.
                coded_index += 1
                continue
            frames[vop_stats.display_index] = frame
            if mask is not None:
                masks[vop_stats.display_index] = mask
            stats.append(vop_stats)
            coded_index += 1
        concealed_frames = 0
        if len(frames) != n_frames:
            if not tolerate_errors:
                raise MalformedStreamError(
                    f"expected {n_frames} VOPs, decoded {len(frames)}"
                )
            concealed_frames = n_frames - len(frames)
            self._conceal_missing_frames(frames, n_frames)
        return DecodedSequence(
            frames=[frames[i] for i in sorted(frames)],
            masks=[masks[i] for i in sorted(masks)] if masks else None,
            vop_stats=stats,
            width=self.width,
            height=self.height,
            concealed_frames=concealed_frames,
        )

    def _conceal_missing_frames(self, frames: dict, n_frames: int) -> None:
        """Whole-VOP concealment: repeat the nearest decoded frame (or
        emit mid-grey when nothing decoded at all)."""
        for display in range(n_frames):
            if display in frames:
                continue
            earlier = [d for d in frames if d < display]
            later = [d for d in frames if d > display]
            if earlier:
                frames[display] = frames[max(earlier)].copy()
            elif later:
                frames[display] = frames[min(later)].copy()
            else:
                frames[display] = YuvFrame.blank(self.width, self.height)

    # -- headers / allocation --------------------------------------------------

    def _read_headers(self, reader: BitReader) -> int:
        if reader.next_startcode() != VO_STARTCODE:
            raise HeaderError("missing VO startcode")
        self.vo_id = reader.read_ue()
        if reader.next_startcode() != VOL_STARTCODE:
            raise HeaderError("missing VOL startcode")
        self.vol_id = reader.read_ue()
        self.width = reader.read_ue()
        self.height = reader.read_ue()
        for axis, value in (("width", self.width), ("height", self.height)):
            if not 0 < value <= MAX_DIMENSION:
                raise HeaderError(f"VOL {axis} {value} outside (0, {MAX_DIMENSION}]")
            if value % MB_SIZE:
                raise HeaderError(f"VOL {axis} {value} not a multiple of {MB_SIZE}")
        self.arbitrary_shape = bool(reader.read_bit())
        self.quant_method = reader.read_bits(2)
        if self.quant_method not in (1, 2):
            raise HeaderError(f"invalid quant_method {self.quant_method}")
        self.resync_markers = bool(reader.read_bit())
        self.data_partitioning = False
        self.reversible_vlc = False
        if self.resync_markers:
            self.data_partitioning = bool(reader.read_bit())
            self.reversible_vlc = bool(reader.read_bit())
            if self.reversible_vlc and not self.data_partitioning:
                raise HeaderError("reversible VLC requires data partitioning")
            if self.data_partitioning and self.arbitrary_shape:
                raise HeaderError(
                    "data partitioning not supported with arbitrary shape"
                )
        n_frames = reader.read_ue()
        if n_frames > MAX_VOPS:
            raise HeaderError(f"VOP count {n_frames} exceeds {MAX_VOPS}")
        if n_frames * self.width * self.height > MAX_SEQUENCE_PIXELS:
            raise HeaderError(
                f"sequence of {n_frames} VOPs at {self.width}x{self.height} "
                "exceeds the decode memory budget"
            )
        self._n_frames = n_frames
        return n_frames

    def _allocate_stores(self) -> None:
        rec = self._rec
        name = self._stream_name
        self._anchors = [
            FrameStore(self.width, self.height, f"{name}.anchor0", rec),
            FrameStore(self.width, self.height, f"{name}.anchor1", rec),
        ]
        self._bwork = FrameStore(self.width, self.height, f"{name}.bvop", rec)
        self._alpha_region = None
        if rec is not None:
            frame_bytes = self.width * self.height * 3 // 2
            self._stream_region = rec.map_linear(f"{name}.bitstream", frame_bytes * 64)
            if self.arbitrary_shape:
                self._alpha_region = rec.map_linear(
                    f"{name}.alpha", self.width * self.height
                )
            frame_bytes = self.width * self.height * 3 // 2
            self._aux_ring = [
                rec.map_linear(f"{name}.aux{i}", frame_bytes) for i in range(3)
            ]
            self._tables_region = (
                rec.map_linear(f"{name}.tables", 1536 << 10)
                if self.walk_tables
                else None
            )
            rec.configure_rows(self.height // MB_SIZE)

    # -- VOP layer ----------------------------------------------------------------

    def _decode_vop(self, reader: BitReader, coded_index: int):
        rec = self._rec
        bits_before = reader.bit_position
        raw_type = reader.read_bits(2)
        try:
            vop_type = VopType(raw_type)
        except ValueError:
            raise HeaderError(
                f"invalid VOP type {raw_type}", bit_position=reader.bit_position
            ) from None
        display = reader.read_ue()
        if display >= self._n_frames:
            raise HeaderError(f"display index {display} outside sequence")
        qp = reader.read_bits(5)
        if qp < 1:
            raise HeaderError("VOP quantizer must be at least 1")
        vop_stats = VopStats(
            vop_type=vop_type, display_index=display, coded_index=coded_index, qp=qp
        )
        if rec is not None:
            rec.begin_vop(coded_index, vop_type.name, display)
            rec.push_phase("vop_decode")
            if self._tables_region is not None:
                self._tk.metadata_walk(rec, self._tables_region)

        mask = None
        if self.arbitrary_shape:
            mask = decode_shape_plane(reader, self.width, self.height)
            if rec is not None:
                from repro.codec.shape import ShapeStats

                tiled = mask.reshape(self.height // 16, 16, self.width // 16, 16)
                boundary = int(
                    (tiled.any(axis=(1, 3)) != tiled.all(axis=(1, 3))).sum()
                )
                stats = ShapeStats(coded_babs=boundary, coded_pixels=boundary * 256)
                self._tk.shape_code(rec, self._alpha_region, stats, decode=True)

        past, future = self._references(display, vop_type)
        if vop_type is VopType.B:
            recon_store = self._bwork
        else:
            slot = self._next_anchor_slot
            recon_store = self._anchors[slot]
            self._anchor_display[slot] = display
            self._next_anchor_slot = 1 - slot

        self._decode_macroblocks(reader, vop_type, qp, mask, past, future, recon_store, vop_stats)
        if rec is not None:
            rec.resume_vop_scope()

        recon_store.expand_borders()
        if rec is not None:
            self._tk.border_expand(rec, recon_store.fmap, self.width, self.height)
        if self.arbitrary_shape and vop_type is not VopType.B:
            self._pad_store(recon_store, mask)
            recon_store.expand_borders()

        frame = recon_store.to_frame()
        if rec is not None:
            # Buffer hand-offs inside the decode pipeline...
            self._tk.vop_pipeline_overhead(
                rec, recon_store.fmap, self._aux_ring, coded_index, None,
                self.width, self.height, n_copies=1,
            )
            rec.pop_phase()
            self._tk.stream_read(
                rec, self._stream_region, (reader.bit_position - bits_before + 7) // 8
            )
            # ...and the display-order output read.  Out-of-temporal-order
            # decoding means the frame displayed now was usually decoded
            # several VOPs ago (paper Section 2.1: reordering "increases
            # the performance and storage requirements for real-time
            # playback"), so the display read targets an older ring bank.
            # The write side of the file/display hand-off happens in the
            # kernel, uncounted.
            display_bank = self._aux_ring[(coded_index + 1) % len(self._aux_ring)]
            self._tk.plane_read(rec, display_bank, self.width, self.height)
        vop_stats.bits = reader.bit_position - bits_before
        return frame, mask, vop_stats

    def _references(self, display: int, vop_type: VopType):
        if vop_type is VopType.I:
            return None, None
        known = [d for d in self._anchor_display if 0 <= d]
        try:
            if vop_type is VopType.P:
                past_display = max(d for d in known if d < display)
                return self._anchors[self._anchor_display.index(past_display)], None
            past_display = max(d for d in known if d < display)
            future_display = min(d for d in known if d > display)
        except ValueError:
            # A damaged display index asks for an anchor that was never
            # decoded; a conforming coded order always provides both.
            raise MalformedStreamError(
                f"no reference anchor for {vop_type.name}-VOP at display {display}"
            ) from None
        return (
            self._anchors[self._anchor_display.index(past_display)],
            self._anchors[self._anchor_display.index(future_display)],
        )

    def _pad_store(self, store: FrameStore, mask: np.ndarray) -> None:
        store.interior_y[:] = repetitive_pad(store.interior_y, mask)
        chroma_mask = mask[::2, ::2]
        store.interior_u[:] = repetitive_pad(store.interior_u, chroma_mask)
        store.interior_v[:] = repetitive_pad(store.interior_v, chroma_mask)
        if self._rec is not None:
            self._tk.padding_pass(self._rec, store.fmap, self.width, self.height)

    # -- macroblock layer -----------------------------------------------------------

    def _decode_macroblocks(
        self, reader, vop_type, qp, mask, past, future, recon_store, vop_stats
    ) -> None:
        # :meth:`_parse_mb_row` is the parser of record.  The batched
        # engine parses each row of a rectangular, non-partitioned VOP in
        # one kernel call when it can, falls back to the parser of record
        # for every row the kernel hands back, and reconstructs the parsed
        # rows of a VOP together; the reference engine and arbitrary-shape
        # VOPs rebuild each macroblock as soon as it is parsed, and
        # data-partitioned packets once their texture partition is read.
        # Every path shares the configured reconstruction IDCT, so
        # fixed-point streams stay drift-free with either engine's encoder.
        self._recon_idct = (
            inverse_dct_fixed if codec_idct() == IDCT_FIXED else inverse_dct
        )
        batched_rows = (
            codec_engine() == ENGINE_BATCHED and mask is None
            and not self.data_partitioning
        )
        mb_rows = self.height // MB_SIZE
        mb_cols = self.width // MB_SIZE
        dc_preds = self._make_dc_predictors(vop_type)
        mv_grid = [[ZERO_MV] * mb_cols for _ in range(mb_rows)]
        bits_start = reader.bit_position
        bit_budget = max(
            VOP_BIT_BUDGET_FLOOR, VOP_BITS_PER_PIXEL_BUDGET * self.width * self.height
        )
        iteration_budget = 4 * mb_rows + 4
        # Batched rows are parsed into ``parsed`` here, and the ``pending``
        # ones (row -> qp) are reconstructed together when the row loop
        # ends.  A P-VOP whose (damaged) display index makes it predict
        # from its own store must see each row land before the next one
        # is predicted, so it reconstructs row by row instead.
        parsed = None
        if batched_rows:
            parsed = MacroblockRows(
                reader.data, vop_type, mb_rows, mb_cols, not self.resync_markers,
                past, future, BORDER,
            )
        pending: dict[int, int] = {}
        row_by_row = recon_store is past or recon_store is future

        def lose(lost_row: int) -> None:
            # Concealment replaces the whole strip, superseding any parsed
            # reconstruction of the row still pending.
            pending.pop(lost_row, None)
            vop_stats.lost_packets += 1
            self._conceal_row(lost_row, vop_type, past, recon_store)

        row = 0
        while row < mb_rows:
            iteration_budget -= 1
            if iteration_budget < 0 or reader.bit_position - bits_start > bit_budget:
                # The VOP is abandoned, but the rows it decoded stay in the
                # store, and later VOPs may still reference it.
                self._reconstruct_rows(pending, parsed, past, future, recon_store)
                raise DecodeBudgetExceededError(
                    f"per-VOP decode budget exhausted at row {row}",
                    bit_position=reader.bit_position,
                )
            try:
                if self.resync_markers and row > 0:
                    suffix = reader.next_startcode()
                    if suffix != RESYNC_STARTCODE:
                        raise ValueError(
                            f"expected resync marker before row {row}, got {suffix}"
                        )
                    marker_row = reader.read_ue()
                    qp = validate_qp(reader.read_bits(5))
                    if marker_row != row:
                        raise ValueError(
                            f"resync marker row {marker_row} != expected {row}"
                        )
                    if dc_preds is not None:
                        dc_preds = self._make_dc_predictors(vop_type)
                if self._rec is not None:
                    self._rec.begin_mb_row(row)
                if self.data_partitioning:
                    with obs.span("codec.decode.row_partitioned", row=row):
                        self._decode_row_partitioned(
                            reader, vop_type, qp, past, future, recon_store,
                            vop_stats, dc_preds, mv_grid, row,
                        )
                elif batched_rows:
                    with obs.span("codec.decode.vlc_parse", row=row):
                        self._parse_row(
                            reader, vop_type, dc_preds, mv_grid, row, past, future,
                            recon_store, vop_stats, parsed,
                        )
                    pending[row] = qp
                    if row_by_row:
                        self._reconstruct_rows(
                            pending, parsed, past, future, recon_store
                        )
                else:
                    with obs.span("codec.decode.mb_row", row=row):
                        for col, record, cbp, n_events in self._parse_mb_row(
                            reader, vop_type, dc_preds, mv_grid, row, mask, vop_stats
                        ):
                            self._reconstruct_mb(
                                record, qp, past, future, recon_store, row, col
                            )
                            self._count_mb(
                                vop_stats, record, cbp, n_events, recon_store, row, col
                            )
            except Exception:
                if not self._tolerate_errors:
                    raise
                lose(row)
                resumed = self._scan_to_resync(reader)
                if resumed is None:
                    for lost in range(row + 1, mb_rows):
                        lose(lost)
                    break
                next_row, _ = resumed
                for lost in range(row + 1, min(next_row, mb_rows)):
                    lose(lost)
                # The scan left the reader positioned at the marker; the
                # loop top re-parses it (and re-enters error handling if
                # that packet is corrupt too).
                row = next_row
                continue
            row += 1
        self._reconstruct_rows(pending, parsed, past, future, recon_store)

    def _parse_row(
        self, reader, vop_type, dc_preds, mv_grid, row, past, future,
        recon_store, vop_stats, parsed,
    ) -> None:
        """Parse one macroblock row into ``parsed``, checking and counting
        each macroblock as the other paths do.

        The kernel parses the row in one call when it can; a traced row
        is then emitted in one call to the trace's row emitter.  Otherwise,
        and whenever the kernel hands the row back,
        :meth:`_parse_mb_row` parses it from the row's first bit, so
        every error, its bit position, the statistics of a partial row and
        the per-MB trace hooks come from the parser of record.
        """
        if parsed.parse(reader, row, dc_preds):
            info = parsed.info[row]
            skipped, intra, inter = np.bincount(
                info[:, F_KIND], minlength=3
            ).tolist()
            vop_stats.skipped_mbs += skipped
            vop_stats.intra_mbs += intra
            vop_stats.inter_mbs += inter
            vop_stats.coded_coefficients += int(info[:, F_N_EVENTS].sum())
            if self._rec is not None and self._rec.active:
                self._emit_row(info, row, past, future, recon_store)
            return
        with parsed.python_row(row, mv_grid):
            for col, record, cbp, n_events in self._parse_mb_row(
                reader, vop_type, dc_preds, mv_grid, row, None, vop_stats
            ):
                self._check_predictions(record, past, future, row, col)
                self._count_mb(
                    vop_stats, record, cbp, n_events, recon_store, row, col
                )
                parsed.pack(row, col, record, cbp, n_events)

    def _emit_row(self, info, row, past, future, recon_store) -> None:
        """Trace a kernel-parsed row from its records, as the per-MB
        hooks (:meth:`_check_predictions`, :meth:`_count_mb`) would.

        An intra macroblock's texture pipeline covers all six blocks.
        """
        tk = self._tk
        kinds = info[:, F_KIND]
        # Indexed by KIND_SKIPPED, KIND_INTRA, KIND_INTER.
        texture = np.array((tk.TEXTURE_NONE, tk.TEXTURE_INTRA, tk.TEXTURE_INTER))[kinds]
        compensations = [
            (store.fmap, info[:, dx] | info[:, dy], info[:, present])
            for store, present, dx, dy in (
                (past, F_FWD, F_FWD_DX, F_FWD_DY), (future, F_BWD, F_BWD_DX, F_BWD_DY)
            )
            if store is not None
        ]
        blocks = np.where(kinds == KIND_INTRA, 6, tk.coded_blocks(info[:, F_CBP]))
        tk.decode_row(
            self._rec, row, recon_store.fmap, compensations,
            (texture, blocks, info[:, F_N_EVENTS]),
        )

    def _parse_mb_row(self, reader, vop_type, dc_preds, mv_grid, row, mask, vop_stats):
        """Parse one macroblock row, yielding each macroblock as it is read.

        Yields ``(col, (residual, past_mv, future_mv), cbp, n_events)``.
        An intra MB's residual is its quantized ``(6, 8, 8)`` levels (AC
        prediction resolved) and it has no vectors; an inter MB's is its
        coded blocks (see :meth:`_read_residual`), with the vector of
        each reference it predicts from; a skipped MB has no residual and
        zero vectors.  In a data-partitioned packet this is partition 1:
        the texture follows the motion marker, so intra residuals hold
        only the DCs, inter residuals are empty and ``n_events`` counts
        the DC terms.  Transparent MBs of an arbitrary-shape VOP are
        counted, not yielded.
        """
        inline_texture = not self.data_partitioning
        pred_fwd = ZERO_MV
        pred_bwd = ZERO_MV
        for col in range(self.width // MB_SIZE):
            mb_y = row * MB_SIZE
            mb_x = col * MB_SIZE
            if mask is not None and not mask[
                mb_y : mb_y + MB_SIZE, mb_x : mb_x + MB_SIZE
            ].any():
                vop_stats.transparent_mbs += 1
                continue
            header = vlc.decode_macroblock_header(
                reader, inter_allowed=vop_type is not VopType.I
            )
            if vop_type is VopType.I:
                if self.data_partitioning and not header.is_intra:
                    raise PartitionError(
                        "inter macroblock header in an I-VOP partition",
                        bit_position=reader.bit_position,
                    )
                levels, n_events = self._parse_intra_mb(
                    reader, dc_preds, row, col, header
                )
                yield col, (levels, None, None), header.cbp, n_events
                continue
            if header.is_skipped or header.is_intra:
                mv_grid[row][col] = ZERO_MV
            if header.is_skipped:
                future_mv = None if vop_type is VopType.P else ZERO_MV
                yield col, (None, ZERO_MV, future_mv), 0, 0
                continue
            if header.is_intra:
                levels, n_events = self._parse_intra_mb(reader, None, row, col, header)
                yield col, (levels, None, None), header.cbp, n_events
                continue
            if vop_type is VopType.P:
                predictor = self._mv_predictor(
                    mv_grid, row, col, cross_row=not self.resync_markers
                )
                dx = vlc.decode_mv_component(reader)
                dy = vlc.decode_mv_component(reader)
                mv_f = MotionVector(predictor.dx + dx, predictor.dy + dy)
                mv_b = None
                mv_grid[row][col] = mv_f
            else:
                mode = PredictionMode(reader.read_bits(2))
                mv_f = mv_b = None
                if mode in (PredictionMode.FORWARD, PredictionMode.BIDIRECTIONAL):
                    dx = vlc.decode_mv_component(reader)
                    dy = vlc.decode_mv_component(reader)
                    mv_f = MotionVector(pred_fwd.dx + dx, pred_fwd.dy + dy)
                    pred_fwd = mv_f
                if mode in (PredictionMode.BACKWARD, PredictionMode.BIDIRECTIONAL):
                    dx = vlc.decode_mv_component(reader)
                    dy = vlc.decode_mv_component(reader)
                    mv_b = MotionVector(pred_bwd.dx + dx, pred_bwd.dy + dy)
                    pred_bwd = mv_b
            if inline_texture:
                blocks, n_events = self._read_residual(reader, header.cbp)
            else:
                blocks, n_events = [], 0
            yield col, (blocks, mv_f, mv_b), header.cbp, n_events

    def _reconstruct_mb(self, record, qp, past, future, recon_store, row, col) -> None:
        """Rebuild one parsed macroblock in ``recon_store``."""
        residual, past_mv, future_mv = record
        mb_y = row * MB_SIZE
        mb_x = col * MB_SIZE
        if past_mv is None and future_mv is None:
            recon = self._recon_idct(
                dequantize_any(residual, qp, True, self.quant_method)
            )
        else:
            predictions = [
                self._predict_mb(store, mb_y, mb_x, mv)
                for store, mv in ((past, past_mv), (future, future_mv))
                if mv is not None
            ]
            recon = predictions[0]
            if len(predictions) == 2:  # bidirectional: the rounded average
                recon = (recon + predictions[1] + 1.0) // 2
            if residual:  # an MB without coded blocks is its prediction
                levels = np.zeros((6, 64), dtype=np.int32)
                for index, rasters, values in residual:
                    levels[index, rasters] = values
                levels = levels.reshape(6, 8, 8)
                recon = recon + self._recon_idct(
                    dequantize_any(levels, qp, False, self.quant_method)
                )
        self._scatter_mb(recon_store, mb_y, mb_x, recon)

    def _count_mb(
        self, vop_stats, record, cbp, n_events, recon_store, row, col
    ) -> None:
        """Statistics and texture trace hook of one decoded macroblock."""
        residual, past_mv, future_mv = record
        if residual is None:
            vop_stats.skipped_mbs += 1
            return
        intra = past_mv is None and future_mv is None
        if intra:
            vop_stats.intra_mbs += 1
        else:
            vop_stats.inter_mbs += 1
        vop_stats.coded_coefficients += n_events
        if self._rec is not None:
            # The trace model charges an intra MB's texture pipeline for
            # all six blocks and their DC terms, except in a
            # data-partitioned packet: there only the coded blocks and
            # their texture-partition events count.
            n_blocks = bin(cbp).count("1")
            n_traced = n_events
            if intra and self.data_partitioning:
                n_traced -= 6
            elif intra:
                n_blocks = 6
            self._tk.mb_texture(
                self._rec, "intra_dec" if intra else "inter_dec", None,
                recon_store.fmap, row * MB_SIZE, col * MB_SIZE,
                n_coded_blocks=n_blocks, n_events=n_traced,
            )

    # -- batched decode: whole-VOP reconstruction ------------------------------

    def _check_predictions(self, record, past, future, row, col) -> None:
        """Raise, and emit the MC trace hooks, exactly where
        :meth:`_predict_mb` would for this record.

        The batched engine defers compensation to
        :meth:`_reconstruct_rows`, so a corrupt motion vector must be
        rejected at the same parse point to keep tolerant decodes and
        traces identical.
        """
        residual, past_mv, future_mv = record
        mb_y = row * MB_SIZE
        mb_x = col * MB_SIZE
        for store, mv in ((past, past_mv), (future, future_mv)):
            if mv is None:
                continue
            if residual is not None:  # a skipped MB's zero vector stays inside
                self._check_plane_bounds(
                    store.y.shape, BORDER + mb_y, BORDER + mb_x, mv, MB_SIZE
                )
                self._check_plane_bounds(
                    store.u.shape, BORDER + mb_y // 2, BORDER + mb_x // 2,
                    mv.chroma(), 8,
                )
            if self._rec is not None:
                self._tk.mc_mb(self._rec, store.fmap, mb_y, mb_x, mv.dx | mv.dy)

    @staticmethod
    def _check_plane_bounds(shape, y: int, x: int, mv: MotionVector, size: int) -> None:
        """Replicate :func:`repro.codec.motion.compensate`'s bounds check."""
        fx, rx = divmod(mv.dx, 2)
        fy, ry = divmod(mv.dy, 2)
        src_y = y + fy
        src_x = x + fx
        need_y = size + (1 if ry else 0)
        need_x = size + (1 if rx else 0)
        height, width = shape
        if src_y < 0 or src_x < 0 or src_y + need_y > height or src_x + need_x > width:
            raise ValueError(
                f"compensation source ({src_y}, {src_x}) size {need_y}x{need_x} "
                f"escapes reference {height}x{width}"
            )

    def _reconstruct_rows(self, pending, parsed, past, future, recon_store) -> None:
        """Reconstruct the pending rows of ``parsed`` in one pass,
        emptying ``pending`` (row -> qp).

        Every macroblock is predicted from each reference store in one
        ``predict_many`` call (an absent vector reads as zero, and an
        intra macroblock's prediction is overwritten), and
        ``bidirectional_predict`` applies the modes the vectors give;
        dequantization and IDCT run once per (qp, intra) group over just
        the blocks that carry levels (an uncoded inter block is its
        prediction); ``store_macroblocks`` writes the whole pass.
        """
        if not pending:
            return
        with obs.span("codec.decode.reconstruct", rows=len(pending)):
            rows = np.fromiter(pending, dtype=np.int64, count=len(pending))
            pending_qps = list(pending.values())
            pending.clear()
            mb_cols = parsed.info.shape[1]
            n_mbs = rows.size * mb_cols
            # Macroblock k of the pass is row_of[k], col_of[k]: row by row.
            row_of = np.repeat(rows, mb_cols)
            col_of = np.tile(np.arange(mb_cols), rows.size)
            mb_ids = row_of * mb_cols + col_of
            info = parsed.info.reshape(-1, parsed.info.shape[2])[mb_ids]
            levels = parsed.levels.reshape(-1, 6, 64)
            qp_of = np.repeat(pending_qps, mb_cols)

            mb_ys, mb_xs = row_of * MB_SIZE, col_of * MB_SIZE
            if past is None:  # an I-VOP
                recon = np.empty((n_mbs, 6, 8, 8), dtype=np.float64)
            else:
                recon, _ = predict_many(
                    past.y, past.u, past.v, mb_ys, mb_xs,
                    info[:, F_FWD_DX], info[:, F_FWD_DY], BORDER,
                )
            if future is not None:
                backward, _ = predict_many(
                    future.y, future.u, future.v, mb_ys, mb_xs,
                    info[:, F_BWD_DX], info[:, F_BWD_DY], BORDER,
                )
                modes = np.where(
                    info[:, F_BWD] != 0,
                    np.where(
                        info[:, F_FWD] != 0,
                        PredictionMode.BIDIRECTIONAL.value,
                        PredictionMode.BACKWARD.value,
                    ),
                    PredictionMode.FORWARD.value,
                )
                bidirectional_predict(recon, backward, modes)
            recon = recon.reshape(n_mbs * 6, 8, 8)
            intra = info[:, F_KIND] == KIND_INTRA
            # The coded blocks of inter MBs, in (MB, block) order.
            coded = (info[:, F_KIND] == KIND_INTER)[:, None] & (
                (info[:, F_CBP, None] >> (5 - np.arange(6))) & 1
            ).astype(bool)
            for qp in set(pending_qps):
                at_qp = qp_of == qp
                mbs = np.flatnonzero(intra & at_qp)
                if mbs.size:
                    blocks = (mbs[:, None] * 6 + np.arange(6)).ravel()
                    recon[blocks] = self._recon_idct(dequantize_blocks(
                        levels[mb_ids[mbs]].reshape(-1, 8, 8), qp, True,
                        self.quant_method,
                    ))
                mbs, indices = np.nonzero(coded & at_qp[:, None])
                if mbs.size:
                    recon[mbs * 6 + indices] += self._recon_idct(dequantize_blocks(
                        levels[mb_ids[mbs], indices].reshape(-1, 8, 8), qp, False,
                        self.quant_method,
                    ))
            store_macroblocks(
                recon_store, row_of, col_of, recon.reshape(n_mbs, 6, 8, 8)
            )

    # -- data-partitioned packets ---------------------------------------------

    def _decode_row_partitioned(
        self, reader, vop_type, qp, past, future, recon_store,
        vop_stats, dc_preds, mv_grid, row,
    ) -> None:
        """Decode one data-partitioned video packet (one macroblock row).

        Partition 1 (headers, motion vectors, intra DCs) and the motion
        marker must parse cleanly -- any damage there invalidates the
        whole packet and propagates to the row-concealment handler.
        Damage inside the texture partition is absorbed here in tolerant
        mode: macroblocks keep their motion/DC reconstruction and only
        the texture residual is dropped (or salvaged backward via RVLC).
        """
        parsed = list(self._parse_mb_row(
            reader, vop_type, dc_preds, mv_grid, row, None, vop_stats
        ))

        marker_pos = reader.bit_position
        suffix = reader.next_startcode()
        if suffix != MOTION_MARKER_STARTCODE:
            # Leave the reader where partition 1 ended so the resync scan
            # does not skip over whatever startcode we just consumed.
            reader.seek_bits(marker_pos)
            raise PartitionError(
                f"missing motion marker in row {row} packet",
                bit_position=marker_pos,
            )

        tex_start = reader.bit_position
        tex_end = reader.find_startcode_prefix()
        coded = [
            (col, index)
            for col, _, cbp, _ in parsed
            for index in range(6)
            if cbp & (1 << (5 - index))
        ]
        events_store: dict[tuple[int, int], list] = {}
        forward_ends: list[int] = []
        failed_at = None
        for ci, key in enumerate(coded):
            try:
                events = self._read_texture_events(reader)
                if reader.bit_position > tex_end:
                    raise PartitionError(
                        "texture events overran the partition",
                        bit_position=reader.bit_position,
                    )
            except Exception:
                if not self._tolerate_errors:
                    raise
                failed_at = ci
                break
            events_store[key] = events
            forward_ends.append(reader.bit_position)

        if failed_at is not None and self.reversible_vlc:
            # Annex-E style two-pass arbitration: decode the whole
            # texture partition backward from the (undamaged) resync end
            # and anchor the recovered blocks to the tail of the coded
            # list.  A corrupt stream can make the forward pass decode
            # garbage as structurally valid events, so forward and
            # backward claims are reconciled by *bit span*, not by the
            # forward failure index: a forward block that consumed bits
            # the backward pass assigns to a later block was misaligned
            # and loses to the anchored backward decode.
            salvaged = self._rvlc_salvage(reader.data, tex_start, tex_end)
            applied_low = tex_end
            for offset, (events, low_bit) in enumerate(salvaged):
                ci = len(coded) - 1 - offset
                if ci < 0:
                    break
                if ci < failed_at and forward_ends[ci] <= low_bit:
                    # Both passes decoded disjoint bits yet claim the
                    # same block index: the counts disagree, and deeper
                    # backward blocks are even less trustworthy.
                    break
                col, _ = coded[ci]
                _, past_mv, future_mv = parsed[col][1]
                capacity = 63 if past_mv is None and future_mv is None else 64
                if not self._events_fit(events, capacity):
                    continue
                events_store[coded[ci]] = events
                applied_low = min(applied_low, low_bit)
                vop_stats.rvlc_salvaged_blocks += 1
            # Discard forward blocks that overran into bits the backward
            # pass assigned to salvaged blocks -- they were decoded out
            # of alignment past the corruption point.
            for ci in range(min(failed_at, len(forward_ends))):
                if forward_ends[ci] > applied_low:
                    events_store.pop(coded[ci], None)
        if failed_at is not None:
            reader.seek_bits(tex_end)

        # Complete each record with whatever texture survived; a coded
        # block without it keeps its DC (intra) or prediction (inter).
        for col, record, cbp, n_events in parsed:
            residual, past_mv, future_mv = record
            intra = past_mv is None and future_mv is None
            lost = False
            for index in range(6):
                if not cbp & (1 << (5 - index)):
                    continue
                events = events_store.get((col, index))
                scanned = self._texture_levels(events, 63 if intra else 64)
                if scanned is None:
                    lost = True
                    continue
                n_events += len(events)
                if intra:
                    residual.reshape(6, 64)[index, ZIGZAG[1:]] = scanned
                else:
                    residual.append((index, ZIGZAG, scanned))
            self._reconstruct_mb(record, qp, past, future, recon_store, row, col)
            if lost:
                vop_stats.texture_concealed_mbs += 1
            self._count_mb(vop_stats, record, cbp, n_events, recon_store, row, col)

    def _read_texture_events(self, reader) -> list[tuple[int, int, int]]:
        """Run-level events for one texture block, in the stream's VLC."""
        decode = (
            vlc.decode_coefficient_event_rvlc
            if self.reversible_vlc
            else vlc.decode_coefficient_event
        )
        events = []
        while True:
            last, run, level = decode(reader)
            events.append((last, run, level))
            if last:
                return events
            if len(events) >= MAX_EVENTS_PER_BLOCK:
                raise MalformedStreamError(
                    "run-level events never terminated within one block",
                    bit_position=reader.bit_position,
                )

    @staticmethod
    def _rvlc_salvage(data: bytes, start_bit: int, end_bit: int):
        """Backward-decode complete texture blocks from a damaged partition.

        Returns ``(events, low_bit)`` pairs in tail-first order: the
        first entry is the partition's final coded block (with the bit
        position where its first event starts), the second the block
        before it, and so on.  A block is only returned once its
        LAST-flagged opening event (read backward) has been seen, so
        partial tails are never reported.
        """
        try:
            reader = ReverseBitReader(data, start_bit, end_bit)
        except ValueError:
            return []
        # Strip the byte-align stuffing before the next startcode: the
        # writer emits a 0 then 1s, so backward we consume 1s then one 0.
        try:
            while reader.bits_remaining and reader.peek_bit() == 1:
                reader.read_bit()
            if not reader.bits_remaining or reader.read_bit() != 0:
                return []
        except BitstreamError:
            return []
        blocks: list[tuple[list[tuple[int, int, int]], int]] = []
        current: list[tuple[int, int, int]] | None = None
        current_low = reader.bit_position
        while True:
            try:
                last, run, level = vlc.decode_coefficient_event_rvlc_backward(reader)
            except BitstreamError:
                break
            if last:
                if current is not None:
                    blocks.append((current[::-1], current_low))
                current = [(last, run, level)]
            else:
                if current is None or len(current) >= MAX_EVENTS_PER_BLOCK:
                    break
                current.append((last, run, level))
            current_low = reader.bit_position
        return blocks

    @staticmethod
    def _events_fit(events, capacity: int) -> bool:
        """True when an event list indexes a legal coefficient vector."""
        total = 0
        for last, run, level in events:
            if run < 0 or level == 0:
                return False
            total += run + 1
            if total > capacity:
                return False
        return bool(events)

    def _texture_levels(self, events, length: int):
        """Scanned coefficient vector for one block, or None when lost."""
        if events is None:
            return None
        try:
            return events_to_levels(events, length=length)
        except (ValueError, IndexError) as error:
            if not self._tolerate_errors:
                raise MalformedStreamError(f"invalid texture events: {error}") from error
            return None

    def _conceal_row(self, row, vop_type, past, recon_store) -> None:
        """Error concealment for a lost packet: copy the strip from the
        past reference (inter VOPs) or fill mid-grey (intra VOPs)."""
        y0 = BORDER + row * MB_SIZE
        cy0 = BORDER + row * MB_SIZE // 2
        from_past = vop_type is not VopType.I and past is not None
        if from_past:
            recon_store.y[y0 : y0 + MB_SIZE, :] = past.y[y0 : y0 + MB_SIZE, :]
            recon_store.u[cy0 : cy0 + 8, :] = past.u[cy0 : cy0 + 8, :]
            recon_store.v[cy0 : cy0 + 8, :] = past.v[cy0 : cy0 + 8, :]
        else:
            recon_store.y[y0 : y0 + MB_SIZE, :] = 128
            recon_store.u[cy0 : cy0 + 8, :] = 128
            recon_store.v[cy0 : cy0 + 8, :] = 128
        if self._rec is not None:
            self._tk.concealment_pass(
                self._rec, past.fmap if from_past else None, recon_store.fmap, row
            )

    def _scan_to_resync(self, reader):
        """Scan forward to the next resync marker inside this VOP.

        Returns ``(row, qp)``, or None when the VOP (or stream) ends first
        -- in which case the terminating startcode is left unconsumed for
        the caller.
        """
        while True:
            suffix = reader.next_startcode()
            if suffix is None:
                return None
            if suffix in (VOP_STARTCODE, SEQUENCE_END_CODE, VO_STARTCODE, VOL_STARTCODE):
                reader.seek_bits(reader.bit_position - 32)
                return None
            if suffix == RESYNC_STARTCODE:
                marker_start = reader.bit_position - 32
                try:
                    row = reader.read_ue()
                    qp = reader.read_bits(5)
                except (EOFError, ValueError):
                    continue
                if 0 < row < self.height // MB_SIZE and 1 <= qp <= 31:
                    reader.seek_bits(marker_start)
                    return row, qp

    def _make_dc_predictors(self, vop_type):
        if vop_type is not VopType.I:
            return None
        mb_rows = self.height // MB_SIZE
        mb_cols = self.width // MB_SIZE
        return {
            "y": AcDcPredictor(2 * mb_rows, 2 * mb_cols),
            "u": AcDcPredictor(mb_rows, mb_cols),
            "v": AcDcPredictor(mb_rows, mb_cols),
        }

    def _scatter_mb(self, store, mb_y, mb_x, blocks) -> None:
        y0 = BORDER + mb_y
        x0 = BORDER + mb_x
        cy0 = BORDER + mb_y // 2
        cx0 = BORDER + mb_x // 2
        pixels = np.clip(np.rint(blocks), 0, 255).astype(np.uint8)
        for index, (by, bx) in enumerate(LUMA_BLOCK_OFFSETS):
            store.y[y0 + by : y0 + by + 8, x0 + bx : x0 + bx + 8] = pixels[index]
        store.u[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[4]
        store.v[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[5]

    def _predict_mb(self, store_ref, mb_y, mb_x, mv) -> np.ndarray:
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

    @classmethod
    def _read_residual(cls, reader, cbp) -> tuple[list[tuple], int]:
        """Coded inter blocks as ``[(block, raster indices, levels)]``,
        plus the event count."""
        blocks = []
        n_events = 0
        for index in range(6):
            if cbp & (1 << (5 - index)):
                rasters, values = cls._read_block(reader, 0)
                n_events += len(values)
                blocks.append((index, rasters, values))
        return blocks, n_events

    @staticmethod
    def _read_block(reader, first: int) -> tuple[list[int], list[int]]:
        """One block's run-level events as (raster indices, levels).

        The zigzag scan starts at position ``first`` (1 for intra AC
        coefficients, whose DC is coded apart).  A block whose events run
        past its 64th coefficient is rejected once all of them are read.
        """
        positions = []
        levels = []
        position = first
        while True:
            last, run, level = vlc.decode_coefficient_event(reader)
            position += run
            positions.append(position)
            levels.append(level)
            position += 1
            if last:
                break
            if len(levels) >= MAX_EVENTS_PER_BLOCK:
                raise MalformedStreamError(
                    "run-level events never terminated within one block",
                    bit_position=reader.bit_position,
                )
        if position > 64:
            raise ValueError("run-level events overflow the coefficient block")
        return [_RASTER_OF_SCAN[p] for p in positions], levels

    def _parse_intra_mb(
        self, reader, dc_preds, row, col, header
    ) -> tuple[np.ndarray, int]:
        """Parse one intra macroblock's DCs and texture events.

        Returns the quantized ``(6, 8, 8)`` levels (AC prediction already
        resolved) plus the event count, the six DC terms included.  A
        data-partitioned packet has no AC prediction and carries the
        texture in its second partition, so only the DCs are read here.
        """
        inline_texture = not self.data_partitioning
        use_ac_pred = (
            inline_texture and dc_preds is not None and bool(reader.read_bit())
        )
        coded = header.cbp if inline_texture else 0
        levels = np.zeros((6, 64), dtype=np.int32)
        n_events = 6
        for index in range(6):
            dc_diff = reader.read_se()
            grid = self._block_grid(dc_preds, index, row, col)
            if grid is None:
                predicted, direction = DEFAULT_DC, FROM_ABOVE
                predictor = None
            else:
                predictor, block_row, block_col = grid
                predicted, direction = predictor.predict_with_direction(
                    block_row, block_col
                )
            dc = predicted + dc_diff
            block = levels[index]  # raster order: row r, column c at 8r + c
            if coded & (1 << (5 - index)):
                rasters, values = self._read_block(reader, 1)
                n_events += len(values)
                block[rasters] = values
            first_row, first_col = block[1:8], block[8:64:8]
            if use_ac_pred and predictor is not None:
                predicted_ac = predictor.predict_ac(block_row, block_col, direction)
                if direction == FROM_ABOVE:
                    first_row += predicted_ac
                else:
                    first_col += predicted_ac
            block[0] = dc
            if predictor is not None:
                predictor.store(block_row, block_col, dc)
                predictor.store_ac(block_row, block_col, first_row, first_col)
        return levels.reshape(6, 8, 8), n_events

    @staticmethod
    def _block_grid(dc_preds, index, row, col):
        """(predictor, block_row, block_col) for block ``index``, or None."""
        if dc_preds is None:
            return None
        if index < 4:
            by, bx = divmod(index, 2)
            return dc_preds["y"], 2 * row + by, 2 * col + bx
        return dc_preds["u" if index == 4 else "v"], row, col

    @staticmethod
    def _mv_predictor(mv_grid, row, col, cross_row: bool = True) -> MotionVector:
        left = mv_grid[row][col - 1] if col > 0 else ZERO_MV
        above = mv_grid[row - 1][col] if row > 0 and cross_row else ZERO_MV
        if row > 0 and cross_row and col + 1 < len(mv_grid[0]):
            above_right = mv_grid[row - 1][col + 1]
        else:
            above_right = ZERO_MV
        return median_mv(left, above, above_right)
