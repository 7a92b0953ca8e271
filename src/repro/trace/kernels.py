"""Vectorized access-pattern emitters for codec kernels.

Each function mirrors one inner loop of the reference codec and emits the
granule stream that loop would generate, with exact access totals.  Two
modelling decisions keep emission tractable without changing simulated
behaviour:

- **Exact strided geometry.** Block and plane sweeps emit one event per
  (row, granule) with the exact number of byte accesses that land in that
  granule, in raster order.  The geometry is translation-invariant: a
  rectangle starting at byte ``start = 32 * q + o`` has row ``r`` at
  ``32 * q + (o + r * stride)``, so every granule index is ``q`` plus that
  of the same rectangle started at byte ``o``, and every byte count is
  the same.  :func:`_strided_lines` therefore keeps one read-only
  template per ``(o, stride, h, w)`` and adds ``start >> 5`` to it, and
  the emitters of every macroblock share a handful of templates.

- **Resident-set collapsed motion estimation.**  During one macroblock's
  full search, the 48x48 search window (~2.3 KB) and the current block
  stay L1-resident (the paper's central observation), so the interleaved
  per-candidate access stream is behaviourally equivalent to touching each
  window granule once, carrying its total access count: the first touch
  hits or misses exactly as in the interleaved stream, every other access
  is an L1 hit either way.  Per-granule totals are computed exactly from
  the candidate-window overlap geometry.  ``tests/trace`` validates the
  collapsed emission against a literal per-candidate emission on small
  configurations.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codec.framestore import BORDER
from repro.memsim.events import GRANULE_BYTES, GRANULE_SHIFT
from repro.memsim.prefetch import prefetch_stream
from repro.trace import costmodel as cm
from repro.trace.layout import FrameMap, LinearRegion, PlaneMap
from repro.video.yuv import MB_SIZE


def _strided_lines(base: int, stride: int, y0: int, x0: int, h: int, w: int):
    """Granule stream for a rectangular byte region, raster order, exact counts.

    ``counts`` is a shared read-only template (see :func:`_granule_template`).
    """
    start = base + y0 * stride + x0
    lines, counts = _granule_template(start & (GRANULE_BYTES - 1), stride, h, w)
    return lines + (start >> GRANULE_SHIFT), counts


@functools.lru_cache(maxsize=4096)
def _granule_template(offset: int, stride: int, h: int, w: int):
    """Granule runs of an ``h`` x ``w`` rectangle whose first byte is ``offset``.

    Every rectangle of this shape and stride whose start is ``offset``
    modulo 32 has these runs shifted by its start granule (the module
    docstring's translation invariance), so they all share these arrays;
    hence read-only.
    """
    starts = offset + np.arange(h, dtype=np.int64) * stride
    g_first = starts >> GRANULE_SHIFT
    g_last = (starts + w - 1) >> GRANULE_SHIFT
    per_row = (g_last - g_first + 1).astype(np.int64)
    total = int(per_row.sum())
    index = np.arange(total, dtype=np.int64)
    row_of = np.repeat(np.arange(h, dtype=np.int64), per_row)
    offset_in_row = index - np.repeat(np.cumsum(per_row) - per_row, per_row)
    lines = g_first[row_of] + offset_in_row
    granule_start = lines << GRANULE_SHIFT
    row_start = starts[row_of]
    counts = np.minimum(row_start + w, granule_start + GRANULE_BYTES) - np.maximum(
        row_start, granule_start
    )
    lines.flags.writeable = False
    counts.flags.writeable = False
    return lines, counts


def _sequential_lines(base: int, n_bytes: int):
    """Granule stream for a linear byte region, exact counts."""
    if n_bytes <= 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    first = base >> GRANULE_SHIFT
    last = (base + n_bytes - 1) >> GRANULE_SHIFT
    lines = np.arange(first, last + 1, dtype=np.int64)
    counts = np.full(lines.size, GRANULE_BYTES, dtype=np.int64)
    counts[0] = min(n_bytes, (first + 1) * GRANULE_BYTES - base)
    if lines.size > 1:
        counts[-1] = base + n_bytes - (last << GRANULE_SHIFT)
    return lines, counts


def _scaled_counts(lines, counts, total: int):
    """Rescale exact per-granule byte counts so they sum to ``total``."""
    weight = counts.astype(np.float64)
    weight_sum = weight.sum()
    if weight_sum == 0:
        return counts
    scaled = np.floor(weight * (total / weight_sum)).astype(np.int64)
    scaled = np.maximum(scaled, 1)
    deficit = total - int(scaled.sum())
    if deficit > 0:
        scaled[0] += deficit
    return scaled


# -- frame-level kernels -------------------------------------------------------


def plane_copy(rec, src, dst, width: int, height: int) -> None:
    """Copy a full YUV frame between two buffers (input load / output store)."""
    n_pixels = width * height * 3 // 2
    src_lines, src_counts = _buffer_lines(src, width, height)
    dst_lines, dst_counts = _buffer_lines(dst, width, height)
    if not rec.active:
        return
    batch = prefetch_stream(_buffer_base(src), n_pixels, phase=rec.phase)
    if batch is not None:
        rec.emit_prefetch(batch.lines, batch.counts)
    rec.emit_read(src_lines, src_counts, alu_ops=n_pixels * cm.COPY_ALU_PER_PIXEL)
    rec.emit_write(dst_lines, dst_counts)


def _buffer_base(buffer) -> int:
    if isinstance(buffer, LinearRegion):
        return buffer.base
    return buffer.y.base


def _buffer_lines(buffer, width: int, height: int):
    """Granules of one frame's worth of pixels in a region or frame store."""
    if isinstance(buffer, LinearRegion):
        return _sequential_lines(buffer.base, width * height * 3 // 2)
    parts = [
        _plane_interior_lines(buffer.y, width, height),
        _plane_interior_lines(buffer.u, width // 2, height // 2),
        _plane_interior_lines(buffer.v, width // 2, height // 2),
    ]
    lines = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    return lines, counts


def _plane_interior_lines(plane: PlaneMap, width: int, height: int):
    return _strided_lines(plane.base, plane.stride, BORDER, BORDER, height, width)


def plane_read(rec, buffer, width: int, height: int, alu_per_pixel: int = 1) -> None:
    """Read-only sweep over one frame's pixels (e.g. output staging, where
    the destination write happens on the kernel side of a write() call).
    The compiler prefetches this kind of linear sweep."""
    if not rec.active:
        return
    lines, counts = _buffer_lines(buffer, width, height)
    n_pixels = width * height * 3 // 2
    batch = prefetch_stream(_buffer_base(buffer), n_pixels, phase=rec.phase)
    if batch is not None:
        rec.emit_prefetch(batch.lines, batch.counts)
    rec.emit_read(lines, counts, alu_ops=n_pixels * alu_per_pixel)


def vop_pipeline_overhead(
    rec,
    fmap: FrameMap,
    aux_ring: list[LinearRegion],
    vop_index: int,
    interp_region: LinearRegion | None,
    width: int,
    height: int,
    n_copies: int = 2,
) -> None:
    """Reference-software bookkeeping around one VOP.

    The MoMuSys pipeline is notoriously copy-heavy: VOP images move
    between image buffers several times per VOP (format conversion,
    buffer hand-off between pipeline stages, image-bank cycling), and
    every reconstructed *anchor* is expanded into a 2x-interpolated
    half-pel reference plane (4x the luma bytes) for the next VOP's
    motion search.  These sweeps are a large share of the real encoder's
    cache misses -- without them the workload looks unrealistically lean.

    ``aux_ring`` models the image banks: the first copy reads the fresh
    reconstruction; subsequent copies hand off between ring buffers that
    were last touched a VOP ago -- resident in a large L2, evicted from a
    small one, exactly the behaviour that separates the 1 MB and 8 MB
    machines.  ``interp_region`` is the half-pel plane (None for
    non-anchor VOPs and for the decoder, which interpolates on the fly).
    """
    if not rec.active:
        return
    n_pixels = width * height * 3 // 2
    frame_lines, frame_counts = _buffer_lines(fmap, width, height)
    for copy_index in range(n_copies):
        if copy_index == 0:
            src_lines, src_counts = frame_lines, frame_counts
        else:
            src = aux_ring[(vop_index + copy_index - 1) % len(aux_ring)]
            src_lines, src_counts = _sequential_lines(src.base, min(n_pixels, src.size))
        dst = aux_ring[(vop_index + copy_index) % len(aux_ring)]
        dst_lines, dst_counts = _sequential_lines(dst.base, min(n_pixels, dst.size))
        if copy_index > 0:
            # The compiler prefetches the ring-buffer copy loops.
            src = aux_ring[(vop_index + copy_index - 1) % len(aux_ring)]
            batch = prefetch_stream(src.base, n_pixels, phase=rec.phase)
            if batch is not None:
                rec.emit_prefetch(batch.lines, batch.counts)
        rec.emit_read(src_lines, src_counts, alu_ops=n_pixels * cm.COPY_ALU_PER_PIXEL)
        rec.emit_write(dst_lines, dst_counts)
    if interp_region is not None:
        # The half-pel plane is built when the *next* VOP's motion search
        # needs it -- one VOP's worth of traffic after the reconstruction
        # was produced, so its source is the oldest ring bank: resident in
        # a large L2, long since evicted from a small one.
        luma = width * height
        src = aux_ring[(vop_index + len(aux_ring) - 1) % len(aux_ring)]
        src_lines, src_counts = _sequential_lines(src.base, min(luma, src.size))
        rec.emit_read(src_lines, src_counts, alu_ops=luma * 4 * cm.MC_ALU_PER_PIXEL_HALF)
        out_lines, out_counts = _sequential_lines(
            interp_region.base, min(4 * luma, interp_region.size)
        )
        rec.emit_write(out_lines, out_counts)


def metadata_walk(rec, region: LinearRegion) -> None:
    """Per-VOP sweep over the codec's table/metadata working set.

    The reference codec keeps several hundred KB of per-macroblock
    metadata (motion fields, mode maps, DC stores, error-resilience
    state) plus VLC and quantizer tables, and re-walks them every VOP at
    structure stride -- one or two granules per 128-byte line.  In a
    small L2 the set is evicted between VOPs, so the walk contributes
    *isolated* L2 misses (one L1 miss per L2 line); in a large L2 it
    stays resident.  Because its size does not scale with the frame, it
    is diluted as image size grows -- the mechanism behind Figure 2's
    "memory performance improves with growing image size".
    """
    if not rec.active:
        return
    lines_per_l2 = 4  # granules per 128-byte line
    n_lines = region.size >> GRANULE_SHIFT
    lines = (region.base >> GRANULE_SHIFT) + lines_per_l2 * np.arange(
        n_lines // lines_per_l2, dtype=np.int64
    )
    counts = np.full(lines.size, 4, dtype=np.int64)
    rec.emit_read(lines, counts, alu_ops=int(counts.sum()) * 2)
    rec.emit_write(lines, np.ones_like(counts))


def padding_pass(rec, fmap: FrameMap, width: int, height: int) -> None:
    """Repetitive padding: horizontal + vertical passes over all planes."""
    if not rec.active:
        return
    n_pixels = width * height * 3 // 2
    for plane, w, h in (
        (fmap.y, width, height),
        (fmap.u, width // 2, height // 2),
        (fmap.v, width // 2, height // 2),
    ):
        lines, counts = _plane_interior_lines(plane, w, h)
        # Two passes, each reading and writing every pixel once.
        rec.emit_read(lines, counts * 2)
        rec.emit_write(lines, counts * 2)
    rec.emit_alu(2 * n_pixels * cm.PAD_ALU_PER_PIXEL)


def concealment_pass(rec, past_fmap, recon_fmap: FrameMap, row: int) -> None:
    """Error concealment of one lost macroblock-row packet.

    Inter concealment copies the stride-wide strip (borders included,
    matching the decoder's slice assignment) from the past reference;
    intra concealment writes mid-grey, so ``past_fmap`` is None and only
    the writes are emitted.  This is the irregular late-pipeline path
    that only damaged streams exercise.
    """
    if not rec.active:
        return
    n_bytes = 0
    read_parts = []
    write_parts = []
    planes = (
        (recon_fmap.y, None if past_fmap is None else past_fmap.y, MB_SIZE),
        (recon_fmap.u, None if past_fmap is None else past_fmap.u, MB_SIZE // 2),
        (recon_fmap.v, None if past_fmap is None else past_fmap.v, MB_SIZE // 2),
    )
    for dst, src, rows in planes:
        y0 = row * rows
        strip = rows * dst.stride
        write_parts.append(_sequential_lines(dst.base + (BORDER + y0) * dst.stride, strip))
        if src is not None:
            read_parts.append(_sequential_lines(src.base + (BORDER + y0) * src.stride, strip))
        n_bytes += strip
    if read_parts:
        lines = np.concatenate([p[0] for p in read_parts])
        counts = np.concatenate([p[1] for p in read_parts])
        rec.emit_read(lines, counts, alu_ops=n_bytes * cm.COPY_ALU_PER_PIXEL)
    lines = np.concatenate([p[0] for p in write_parts])
    counts = np.concatenate([p[1] for p in write_parts])
    rec.emit_write(lines, counts)


def border_expand(rec, fmap: FrameMap, width: int, height: int) -> None:
    """Edge replication into the expanded borders of a reference store."""
    if not rec.active:
        return
    for plane, w, h in (
        (fmap.y, width, height),
        (fmap.u, width // 2, height // 2),
        (fmap.v, width // 2, height // 2),
    ):
        # Top and bottom strips (full stride), written sequentially.
        strip = BORDER * plane.stride
        top_lines, top_counts = _sequential_lines(plane.base, strip)
        bottom_base = plane.base + (BORDER + h) * plane.stride
        bot_lines, bot_counts = _sequential_lines(bottom_base, strip)
        # Left/right columns of the interior rows.
        left_lines, left_counts = _strided_lines(plane.base, plane.stride, BORDER, 0, h, BORDER)
        right_lines, right_counts = _strided_lines(
            plane.base, plane.stride, BORDER, BORDER + w, h, BORDER
        )
        lines = np.concatenate([top_lines, bot_lines, left_lines, right_lines])
        counts = np.concatenate([top_counts, bot_counts, left_counts, right_counts])
        rec.emit_write(lines, counts, alu_ops=int(counts.sum()) * cm.BORDER_ALU_PER_PIXEL)


def shape_code(rec, alpha_region: LinearRegion, stats, decode: bool) -> None:
    """Binary alpha plane coding: BAB classification sweep + CAE pixels."""
    if not rec.active:
        return
    plane_bytes = alpha_region.size
    lines, counts = _sequential_lines(alpha_region.base, plane_bytes)
    # Mode classification reads every alpha pixel; CAE adds ~10 context
    # reads and one write per coded pixel, concentrated on boundary BABs
    # (modelled as extra weight over the same plane).
    read_total = plane_bytes + stats.coded_pixels * 10
    rec.emit_read(lines, _scaled_counts(lines, counts, read_total))
    if stats.coded_pixels:
        write_lines, write_counts = _sequential_lines(
            alpha_region.base, min(plane_bytes, max(stats.coded_pixels, GRANULE_BYTES))
        )
        rec.emit_write(write_lines, _scaled_counts(write_lines, write_counts, stats.coded_pixels))
    alu = stats.coded_pixels * cm.CAE_ALU_PER_PIXEL + 2 * plane_bytes
    rec.emit_alu(alu)


# -- macroblock-level kernels ----------------------------------------------------


def me_search(
    rec,
    ref_fmap: FrameMap,
    cur_fmap: FrameMap,
    mb_y: int,
    mb_x: int,
    search_range: int,
    search,
    halfpel_evals: int,
) -> None:
    """Full-search motion estimation over one macroblock's window.

    ``search`` is the :class:`~repro.codec.motion.SearchResult`, whose
    work model (early-termination read counts and per-window-row coverage)
    drives the emission.  Emits the resident-set collapsed stream (module
    docstring): current block granules first, then window granules in
    raster order, each with its total access count over all candidates.
    """
    if not rec.active:
        return
    n = MB_SIZE
    span = 2 * search_range + 1  # candidate positions per axis (unclamped)
    window = span + n - 1
    n_candidates = search.candidates_evaluated

    if search.row_coverage is not None and search.row_coverage.size == window:
        row_weight = search.row_coverage
        ref_total = search.ref_reads
        cur_total = search.cur_reads + halfpel_evals * n * n
    else:
        # No work model: exhaustive search touches every candidate row.
        row_weight = np.minimum.reduce(
            [
                np.arange(window, dtype=np.int64) + 1,
                np.full(window, span, dtype=np.int64),
                np.full(window, n, dtype=np.int64),
                window - np.arange(window, dtype=np.int64),
            ]
        )
        ref_total = n_candidates * n * n
        cur_total = (n_candidates + halfpel_evals) * n * n

    # Column-coverage weights: byte at window column c is read by
    # cnt[c] = |{dx : dx <= c <= dx+15}| candidates along that axis.
    col_coverage = np.minimum.reduce(
        [
            np.arange(window, dtype=np.int64) + 1,
            np.full(window, span, dtype=np.int64),
            np.full(window, n, dtype=np.int64),
            window - np.arange(window, dtype=np.int64),
        ]
    )
    y0 = BORDER + mb_y - search_range
    x0 = BORDER + mb_x - search_range
    lines, byte_counts = _strided_lines(ref_fmap.y.base, ref_fmap.y.stride, y0, x0, window, window)
    # Per-granule totals: row weight x column weight, normalized to the
    # modelled read total.  Recover each event's (row, column-range) from
    # the geometry.
    starts = ref_fmap.y.base + (y0 + np.arange(window, dtype=np.int64)) * ref_fmap.y.stride + x0
    g_first = starts >> GRANULE_SHIFT
    g_last = (starts + window - 1) >> GRANULE_SHIFT
    per_row = (g_last - g_first + 1).astype(np.int64)
    row_of = np.repeat(np.arange(window, dtype=np.int64), per_row)
    col_start = np.maximum((lines << GRANULE_SHIFT) - starts[row_of], 0)
    col_end = col_start + byte_counts
    coverage_cumulative = np.concatenate(([0], np.cumsum(col_coverage)))
    column_weight = coverage_cumulative[col_end] - coverage_cumulative[col_start]
    weights = row_weight[row_of] * column_weight
    total_weight = int(weights.sum())
    if total_weight:
        ref_counts = np.maximum(
            (weights * (ref_total / total_weight)).astype(np.int64), 1
        )
    else:
        ref_counts = np.ones_like(weights)
    # Half-pel refinement re-reads the winner's neighbourhood.
    halfpel_reads = halfpel_evals * n * n * 2
    if halfpel_reads:
        ref_counts = ref_counts + _scaled_counts(lines, byte_counts, halfpel_reads)

    cur_lines, cur_byte_counts = _strided_lines(
        cur_fmap.y.base, cur_fmap.y.stride, BORDER + mb_y, BORDER + mb_x, n, n
    )
    cur_counts = _scaled_counts(cur_lines, cur_byte_counts, max(cur_total, 1))

    pixel_pairs = ref_total if search.row_coverage is not None else n_candidates * n * n
    alu = pixel_pairs * cm.SAD_ALU_PER_PIXEL + n_candidates * cm.ME_ALU_PER_CANDIDATE
    alu += halfpel_evals * n * n * cm.HALFPEL_ALU_PER_PIXEL
    rec.emit_read(cur_lines, cur_counts)
    rec.emit_read(lines, ref_counts, alu_ops=alu)


def mc_mb(rec, ref_fmap: FrameMap, mb_y: int, mb_x: int, halfpel: int) -> None:
    """Motion-compensated prediction fetch for one macroblock (Y, U, V)."""
    if not rec.active:
        return
    extra = 1 if halfpel & 1 else 0
    reads_per_pixel = 2 if extra else 1
    parts = []
    for plane, y, x, size in (
        (ref_fmap.y, mb_y, mb_x, MB_SIZE),
        (ref_fmap.u, mb_y // 2, mb_x // 2, 8),
        (ref_fmap.v, mb_y // 2, mb_x // 2, 8),
    ):
        lines, counts = _strided_lines(
            plane.base, plane.stride, BORDER + y, BORDER + x, size + extra, size + extra
        )
        parts.append((lines, counts * reads_per_pixel))
    lines = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    pixels = MB_SIZE * MB_SIZE + 2 * 64
    alu = pixels * (cm.MC_ALU_PER_PIXEL_HALF if extra else cm.MC_ALU_PER_PIXEL_FULL)
    rec.emit_read(lines, counts, alu_ops=alu)


def mb_texture(
    rec,
    kind: str,
    cur_fmap: FrameMap | None,
    recon_fmap: FrameMap,
    mb_y: int,
    mb_x: int,
    n_coded_blocks: int,
    n_events: int,
) -> None:
    """Texture pipeline for one macroblock: DCT/quant/zigzag/VLC + recon.

    ``kind`` is one of ``intra_enc``, ``inter_enc``, ``intra_dec``,
    ``inter_dec``.  Current-frame reads happen only on the encode side;
    scratch traffic (block buffers, tables) is charged against the shared
    per-macroblock scratch region, which is the dominant source of
    graduated loads/stores in the texture pipeline -- and is L1-resident,
    exactly like the C working buffers.
    """
    if not rec.active:
        return
    encode = kind.endswith("enc")
    intra = kind.startswith("intra")
    scratch = _scratch_region(rec)
    s_lines, s_byte_counts = _sequential_lines(scratch.base, scratch.size)

    if encode and cur_fmap is not None:
        # Read the six source blocks (DCT input + residual computation).
        lines, counts = _mb_lines(cur_fmap, mb_y, mb_x)
        rec.emit_read(lines, counts * 2)

    pipeline_blocks = 6 if encode else max(n_coded_blocks, 1)
    mb_pixels = MB_SIZE * MB_SIZE + 2 * 64
    if encode:
        scratch_loads = (
            pipeline_blocks * cm.SCRATCH_LOADS_PER_BLOCK_ENC
            + n_events * 4
            + mb_pixels * cm.ENC_PIPELINE_LOADS_PER_PIXEL
        )
        scratch_stores = (
            pipeline_blocks * cm.SCRATCH_STORES_PER_BLOCK_ENC
            + n_events * 2
            + mb_pixels * cm.ENC_PIPELINE_STORES_PER_PIXEL
        )
    else:
        scratch_loads = (
            pipeline_blocks * cm.SCRATCH_LOADS_PER_BLOCK_DEC
            + n_events * cm.SCRATCH_LOADS_PER_EVENT_DEC
            + cm.MB_OVERHEAD_ACCESSES
            + mb_pixels * cm.DEC_PIPELINE_LOADS_PER_PIXEL
        )
        scratch_stores = (
            pipeline_blocks * cm.SCRATCH_STORES_PER_BLOCK_DEC
            + n_events * 2
            + mb_pixels * cm.DEC_PIPELINE_STORES_PER_PIXEL
        )
    rec.emit_read(s_lines, _scaled_counts(s_lines, s_byte_counts, scratch_loads))
    rec.emit_write(s_lines, _scaled_counts(s_lines, s_byte_counts, scratch_stores))

    # Reconstruction write-back into the frame store.
    lines, counts = _mb_lines(recon_fmap, mb_y, mb_x)
    rec.emit_write(lines, counts)

    coeffs = 64 * pipeline_blocks
    alu = pipeline_blocks * cm.DCT_ALU_PER_BLOCK
    if encode:
        alu += pipeline_blocks * cm.DCT_ALU_PER_BLOCK  # recon IDCT
        alu += coeffs * (cm.QUANT_ALU_PER_COEFF + cm.ZIGZAG_ALU_PER_COEFF)
        alu += n_events * cm.VLC_ALU_PER_EVENT
    else:
        alu += coeffs * (cm.QUANT_ALU_PER_COEFF + cm.ZIGZAG_ALU_PER_COEFF)
        alu += n_events * cm.VLC_DEC_ALU_PER_EVENT
    alu += (MB_SIZE * MB_SIZE + 128) * cm.RECON_ALU_PER_PIXEL
    if encode:
        pipeline_per_pixel = cm.ENC_PIPELINE_LOADS_PER_PIXEL + cm.ENC_PIPELINE_STORES_PER_PIXEL
    else:
        pipeline_per_pixel = cm.DEC_PIPELINE_LOADS_PER_PIXEL + cm.DEC_PIPELINE_STORES_PER_PIXEL
    alu += int(mb_pixels * pipeline_per_pixel * cm.PIPELINE_ALU_PER_ACCESS)
    if intra and not encode:
        alu += 64 * pipeline_blocks  # DC prediction bookkeeping
    rec.emit_alu(alu)


def _mb_lines(fmap: FrameMap, mb_y: int, mb_x: int):
    parts = [
        _strided_lines(
            fmap.y.base, fmap.y.stride, BORDER + mb_y, BORDER + mb_x, MB_SIZE, MB_SIZE
        ),
        _strided_lines(
            fmap.u.base, fmap.u.stride, BORDER + mb_y // 2, BORDER + mb_x // 2, 8, 8
        ),
        _strided_lines(
            fmap.v.base, fmap.v.stride, BORDER + mb_y // 2, BORDER + mb_x // 2, 8, 8
        ),
    ]
    lines = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    return lines, counts


def _scratch_region(rec) -> LinearRegion:
    region = rec.space.regions.get("scratch")
    if region is None:
        return rec.map_linear("scratch", cm.SCRATCH_BYTES)
    base, size = region
    return LinearRegion(name="scratch", base=base, size=size)


# -- bitstream kernels ------------------------------------------------------------


def stream_write(rec, region: LinearRegion, n_bytes: int) -> None:
    """Sequential bitstream production (bit packing into the output buffer)."""
    if n_bytes <= 0:
        return
    start = region.advance(n_bytes)  # cursor advances even when not traced
    if not rec.active:
        return
    lines, counts = _sequential_lines(start, n_bytes)
    rec.emit_write(lines, counts, alu_ops=n_bytes * cm.STREAM_ALU_PER_BYTE)


def stream_read(rec, region: LinearRegion, n_bytes: int) -> None:
    """Sequential bitstream consumption (bit unpacking), with the compiler's
    stream prefetches."""
    if n_bytes <= 0:
        return
    start = region.advance(n_bytes)
    if not rec.active:
        return
    batch = prefetch_stream(start, n_bytes, phase=rec.phase)
    if batch is not None:
        rec.emit_prefetch(batch.lines, batch.counts)
    lines, counts = _sequential_lines(start, n_bytes)
    rec.emit_read(lines, counts, alu_ops=n_bytes * cm.STREAM_ALU_PER_BYTE)
