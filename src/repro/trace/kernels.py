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
  the emitters of every macroblock share a handful of templates.  The
  per-macroblock emitters cache the rest of their geometry the same
  way, each cache bounded and keyed on geometry, never on macroblock
  coordinates: :func:`me_search` a window's runs, row map and column
  weights per ``(o, stride, span)`` and its half-pel re-reads per read
  total; :func:`mc_mb` and :func:`mb_texture` one Y/U/V template per
  plane offsets, strides, block size and read multiplier; and
  :func:`mb_texture` the scratch region's scaled runs per access total.
  ``tests/trace/emitter_oracle.py`` keeps the direct computation as the
  differential tests' oracle.

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

- **One call per macroblock row.**  :func:`encode_row` and
  :func:`decode_row` build a whole row's batches -- each macroblock's
  :func:`me_search`, :func:`mc_mb`, :func:`mb_texture` and
  :func:`stream_write` batches, in that order, with the same lines,
  counts, kinds and ALU counts -- from per-MB arrays (search work,
  vectors, texture kind and event counts, bytes) and the same
  templates, shifted per macroblock.  Macroblocks share a template
  when their offsets modulo 32 agree, which repeats every two columns
  (Y, search windows) or four (U and V), so a row's NumPy calls depend
  on its emitter batches, not on its macroblocks, and it reaches the
  recorder as one run-collapsed
  :class:`~repro.memsim.events.BatchTable`.  Both kinds of emitter take
  their counts from the same work-model helpers (:func:`_search_work`,
  :func:`_texture_work`, :func:`_scaled_rows`, :func:`_sequential_runs`),
  which work on one macroblock's scalars and a row's arrays alike, so
  the cost model is written once.  The batched encoder and the
  batched decoder's kernel-parsed rows call them once per row.  The
  per-MB emitters stay as they are for everything else: the reference
  engine (the oracle), the decoder's rows parsed in Python (hand-backs,
  no parse kernel), arbitrary-shape VOPs and data-partitioned packets.
  ``tests/trace/test_emitter_differential.py`` holds a row call to the
  per-MB emitters called macroblock by macroblock.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codec.framestore import BORDER
from repro.memsim.events import (
    GRANULE_BYTES,
    GRANULE_SHIFT,
    KIND_READ,
    KIND_WRITE,
    BatchTable,
    collapse_runs,
)
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
    lines, counts, _ = _sequential_runs(
        np.array([base], dtype=np.int64), np.array([n_bytes], dtype=np.int64)
    )
    return lines, counts


def _sequential_runs(starts: np.ndarray, n_bytes: np.ndarray):
    """Granule runs of linear byte regions of ``n_bytes`` (all positive)
    at ``starts``, back to back, and each region's run count."""
    first = starts >> GRANULE_SHIFT
    last = (starts + n_bytes - 1) >> GRANULE_SHIFT
    sizes = last - first + 1
    lines = _gather_runs(first, sizes)
    ends = np.cumsum(sizes)
    counts = np.full(lines.size, GRANULE_BYTES, dtype=np.int64)
    counts[ends - 1] = starts + n_bytes - (last << GRANULE_SHIFT)
    counts[ends - sizes] = np.minimum(n_bytes, ((first + 1) << GRANULE_SHIFT) - starts)
    return lines, counts, sizes


def _gather_runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices of the runs ``starts[i] : starts[i] + sizes[i]``, back to back."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1] if ends.size else 0)


def _scaled_counts(lines, counts, total: int):
    """Rescale exact per-granule byte counts so they sum to ``total``."""
    return _scaled_rows(counts, np.array([total], dtype=np.int64))[0]


def _scaled_rows(byte_counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``byte_counts`` rescaled to sum to each of ``totals``, one row per
    total: each count's share of the total, floored and at least one,
    with what the floors leave out added to the first."""
    weight = byte_counts.astype(np.float64)
    weight_sum = weight.sum()
    if weight_sum == 0:
        return np.repeat(byte_counts[None, :], totals.size, axis=0)
    scaled = np.floor(weight * (totals / weight_sum)[:, None]).astype(np.int64)
    np.maximum(scaled, 1, out=scaled)
    deficit = totals - scaled.sum(axis=1)
    scaled[:, 0] += np.maximum(deficit, 0)
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
    The window's geometry comes from :func:`_search_template`.
    """
    if not rec.active:
        return
    n = MB_SIZE
    span = 2 * search_range + 1  # candidate positions per axis (unclamped)
    window = span + n - 1
    n_candidates = search.candidates_evaluated
    plane = ref_fmap.y
    y0 = BORDER + mb_y - search_range
    x0 = BORDER + mb_x - search_range
    start = plane.base + y0 * plane.stride + x0
    offset = start & (GRANULE_BYTES - 1)
    template_lines, row_of, column_weight, exhaustive_rows = _search_template(
        offset, plane.stride, span
    )
    valid = search.row_coverage is not None and search.row_coverage.size == window
    row_weight = search.row_coverage if valid else exhaustive_rows
    ref_total, cur_total, alu = (
        int(value)
        for value in _search_work(
            valid, search.ref_reads, search.cur_reads, n_candidates, halfpel_evals
        )
    )

    # Per-granule totals: row weight x column weight, normalized to the
    # modelled read total.
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
        ref_counts = ref_counts + _halfpel_counts(offset, plane.stride, span, halfpel_reads)

    cur_lines, cur_byte_counts = _strided_lines(
        cur_fmap.y.base, cur_fmap.y.stride, BORDER + mb_y, BORDER + mb_x, n, n
    )
    cur_counts = _scaled_counts(cur_lines, cur_byte_counts, max(cur_total, 1))
    rec.emit_read(cur_lines, cur_counts)
    rec.emit_read(template_lines + (start >> GRANULE_SHIFT), ref_counts, alu_ops=alu)


def _search_work(valid, ref_reads, cur_reads, candidates, halfpel_evals):
    """:func:`me_search`'s work model: the window's and the current
    block's read totals and the ALU count, of one search (scalars) or of
    a row's (per-MB arrays).

    Without a valid window-row coverage (none, or of the wrong size) the
    search is taken as exhaustive: every candidate reads its 256 pixels.
    """
    pixels = MB_SIZE * MB_SIZE
    exhaustive = candidates * pixels
    ref_total = np.where(valid, ref_reads, exhaustive)
    cur_total = np.where(valid, cur_reads, exhaustive) + halfpel_evals * pixels
    alu = (
        ref_total * cm.SAD_ALU_PER_PIXEL
        + candidates * cm.ME_ALU_PER_CANDIDATE
        + halfpel_evals * (pixels * cm.HALFPEL_ALU_PER_PIXEL)
    )
    return ref_total, cur_total, alu


@functools.lru_cache(maxsize=1024)
def _search_template(offset: int, stride: int, span: int):
    """Geometry of a motion-search window whose first byte is ``offset``.

    The window is ``span + 15`` bytes square (``span`` candidates per
    axis).  Returns read-only ``(lines, row_of, column_weight,
    exhaustive_rows)``: the window's granule runs (shift by the start
    granule), the window row of each run, each run's column weight (the
    sum over its bytes of the candidates along a row that read the
    byte), and the per-row weight of an exhaustive search.  All of it is
    translation-invariant like :func:`_granule_template`, so every
    macroblock's window shares one template.
    """
    n = MB_SIZE
    window = span + n - 1
    lines, byte_counts = _granule_template(offset, stride, window, window)
    # Byte at window column c is read by
    # |{dx : dx <= c <= dx + 15}| candidates along that axis; an
    # exhaustive search weights window rows the same way.
    positions = np.arange(window, dtype=np.int64)
    coverage = np.minimum.reduce(
        [positions + 1, np.full(window, span), np.full(window, n), window - positions]
    )
    starts = offset + positions * stride
    per_row = ((starts + window - 1) >> GRANULE_SHIFT) - (starts >> GRANULE_SHIFT) + 1
    row_of = np.repeat(positions, per_row)
    col_start = np.maximum((lines << GRANULE_SHIFT) - starts[row_of], 0)
    coverage_cumulative = np.concatenate(([0], np.cumsum(coverage)))
    column_weight = (
        coverage_cumulative[col_start + byte_counts] - coverage_cumulative[col_start]
    )
    for array in (row_of, column_weight, coverage):
        array.flags.writeable = False
    return lines, row_of, column_weight, coverage


@functools.lru_cache(maxsize=1024)
def _halfpel_counts(offset: int, stride: int, span: int, halfpel_reads: int):
    """The half-pel refinement's re-reads spread over a search window."""
    window = span + MB_SIZE - 1
    lines, byte_counts = _granule_template(offset, stride, window, window)
    counts = _scaled_counts(lines, byte_counts, halfpel_reads)
    counts.flags.writeable = False
    return counts


def mc_mb(rec, ref_fmap: FrameMap, mb_y: int, mb_x: int, halfpel: int) -> None:
    """Motion-compensated prediction fetch for one macroblock (Y, U, V)."""
    if not rec.active:
        return
    extra = 1 if halfpel & 1 else 0
    lines, counts = _mb_lines(ref_fmap, mb_y, mb_x, extra, reads=2 if extra else 1)
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

    if encode and cur_fmap is not None:
        # Read the six source blocks (DCT input + residual computation).
        rec.emit_read(*_mb_lines(cur_fmap, mb_y, mb_x, reads=2))

    blocks = 6 if encode else max(n_coded_blocks, 1)
    scratch_loads, scratch_stores, alu = _texture_work(encode, intra, blocks, n_events)
    scratch = _scratch_region(rec)
    rec.emit_read(*_scratch_runs(*scratch, scratch_loads))
    rec.emit_write(*_scratch_runs(*scratch, scratch_stores))

    # Reconstruction write-back into the frame store.
    rec.emit_write(*_mb_lines(recon_fmap, mb_y, mb_x))
    rec.emit_alu(alu)


def _texture_work(encode: bool, intra, blocks, n_events):
    """:func:`mb_texture`'s work model: scratch loads, scratch stores and
    the ALU count of a macroblock whose pipeline runs ``blocks`` blocks
    (all six on encode) and codes ``n_events`` events, for one
    macroblock (scalars) or a row's (per-MB arrays).  ``intra`` adds the
    decoder's DC prediction bookkeeping.
    """
    mb_pixels = MB_SIZE * MB_SIZE + 2 * 64
    if encode:
        loads = (
            blocks * cm.SCRATCH_LOADS_PER_BLOCK_ENC
            + n_events * 4
            + mb_pixels * cm.ENC_PIPELINE_LOADS_PER_PIXEL
        )
        stores = (
            blocks * cm.SCRATCH_STORES_PER_BLOCK_ENC
            + n_events * 2
            + mb_pixels * cm.ENC_PIPELINE_STORES_PER_PIXEL
        )
        # Forward DCT and the reconstruction's IDCT.
        alu = 2 * blocks * cm.DCT_ALU_PER_BLOCK + n_events * cm.VLC_ALU_PER_EVENT
        pipeline_per_pixel = cm.ENC_PIPELINE_LOADS_PER_PIXEL + cm.ENC_PIPELINE_STORES_PER_PIXEL
    else:
        loads = (
            blocks * cm.SCRATCH_LOADS_PER_BLOCK_DEC
            + n_events * cm.SCRATCH_LOADS_PER_EVENT_DEC
            + cm.MB_OVERHEAD_ACCESSES
            + mb_pixels * cm.DEC_PIPELINE_LOADS_PER_PIXEL
        )
        stores = (
            blocks * cm.SCRATCH_STORES_PER_BLOCK_DEC
            + n_events * 2
            + mb_pixels * cm.DEC_PIPELINE_STORES_PER_PIXEL
        )
        alu = blocks * cm.DCT_ALU_PER_BLOCK + n_events * cm.VLC_DEC_ALU_PER_EVENT
        alu += 64 * blocks * intra  # DC prediction bookkeeping
        pipeline_per_pixel = cm.DEC_PIPELINE_LOADS_PER_PIXEL + cm.DEC_PIPELINE_STORES_PER_PIXEL
    alu += 64 * blocks * (cm.QUANT_ALU_PER_COEFF + cm.ZIGZAG_ALU_PER_COEFF)
    alu += (MB_SIZE * MB_SIZE + 128) * cm.RECON_ALU_PER_PIXEL
    alu += int(mb_pixels * pipeline_per_pixel * cm.PIPELINE_ALU_PER_ACCESS)
    return loads, stores, alu


def _mb_lines(fmap: FrameMap, mb_y: int, mb_x: int, extra: int = 0, reads: int = 1):
    """Granule runs of a macroblock's Y, U and V blocks, in that order.

    Each block is ``extra`` pixels wider and taller than the macroblock's
    (a half-pel fetch) and each count is multiplied by ``reads``.  The
    runs come from :func:`_mb_template`, shifted by each plane's start
    granule.
    """
    y, u, v = fmap.y, fmap.u, fmap.v
    cy, cx = BORDER + mb_y // 2, BORDER + mb_x // 2
    y_start = y.base + (BORDER + mb_y) * y.stride + BORDER + mb_x
    u_start = u.base + cy * u.stride + cx
    v_start = v.base + cy * v.stride + cx
    mask = GRANULE_BYTES - 1
    lines, counts, plane_of = _mb_template(
        (y_start & mask, u_start & mask, v_start & mask),
        (y.stride, u.stride, v.stride),
        extra,
        reads,
    )
    starts = np.array(
        (y_start >> GRANULE_SHIFT, u_start >> GRANULE_SHIFT, v_start >> GRANULE_SHIFT)
    )
    return lines + starts[plane_of], counts


@functools.lru_cache(maxsize=1024)
def _mb_template(offsets: tuple, strides: tuple, extra: int, reads: int):
    """Granule runs of a macroblock's three blocks (see :func:`_mb_lines`).

    Keyed on each plane's start offset modulo 32 and stride: translation
    invariance (module docstring) makes the runs of every macroblock with
    that geometry these, each plane's shifted by its start granule.
    Returns read-only ``(lines, counts, plane_of)``, ``plane_of`` naming
    each run's plane (0, 1, 2).
    """
    parts = [
        _granule_template(offset, stride, size + extra, size + extra)
        for offset, stride, size in zip(offsets, strides, (MB_SIZE, 8, 8))
    ]
    lines = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts]) * reads
    plane_of = np.repeat(np.arange(3), [part[0].size for part in parts])
    for array in (lines, counts, plane_of):
        array.flags.writeable = False
    return lines, counts, plane_of


def _scratch_region(rec) -> tuple[int, int]:
    """``(base, size)`` of the recorder's per-macroblock scratch region."""
    region = rec.space.regions.get("scratch")
    if region is None:
        rec.map_linear("scratch", cm.SCRATCH_BYTES)
        region = rec.space.regions["scratch"]
    return region


@functools.lru_cache(maxsize=4096)
def _scratch_runs(base: int, size: int, total: int):
    """The scratch region's granule runs carrying ``total`` accesses.

    The region and the per-macroblock totals are constants of a
    recorder, so macroblocks share these read-only arrays.
    """
    lines, byte_counts = _scratch_lines(base, size)
    counts = _scaled_counts(lines, byte_counts, total)
    counts.flags.writeable = False
    return lines, counts


@functools.lru_cache(maxsize=64)
def _scratch_lines(base: int, size: int):
    lines, counts = _sequential_lines(base, size)
    lines.flags.writeable = False
    counts.flags.writeable = False
    return lines, counts


# -- macroblock-row kernels --------------------------------------------------------

#: A macroblock's texture in a row emission: none (skipped), intra, inter.
TEXTURE_NONE, TEXTURE_INTRA, TEXTURE_INTER = range(3)

#: Set bits of every 6-bit coded-block pattern.
_CBP_BLOCKS = np.array([bin(cbp).count("1") for cbp in range(64)], dtype=np.int64)


def coded_blocks(cbp) -> np.ndarray:
    """Coded blocks of each 6-bit coded-block pattern in ``cbp``."""
    return _CBP_BLOCKS[np.asarray(cbp, dtype=np.int64)]


def encode_row(
    rec,
    stream_region: LinearRegion,
    row: int,
    n_bytes,
    cur_fmap: FrameMap,
    recon_fmap: FrameMap,
    search_range: int,
    searches,
    compensations,
    texture,
) -> None:
    """One encoded macroblock row, as the per-MB emitters emit it.

    Per macroblock, in this order: :func:`me_search` for each reference
    searched, :func:`mc_mb` for each reference compensated from,
    :func:`mb_texture` (``*_enc``) unless the macroblock was skipped,
    and :func:`stream_write` of its bytes.

    - ``n_bytes``: each macroblock's bytes (the stream cursor advances
      by them even on a row band sampling skips);
    - ``searches``: ``(ref_fmap, reads, candidates, evaluated, coverage,
      cover_rows)`` per reference, each a per-MB array: the search work
      model :func:`me_search` reads from a ``SearchResult`` (``reads`` is
      both its reference and current reads, ``evaluated`` the half-pel
      evaluations, ``coverage`` a row of window-row coverage per MB,
      valid in its first ``cover_rows`` entries);
    - ``compensations``: ``(ref_fmap, halfpel, used)`` per reference:
      each MB's ``dx | dy`` and whether it is compensated from it;
    - ``texture``: per-MB ``(kinds, n_coded_blocks, n_events)``, kinds
      being :data:`TEXTURE_NONE`, :data:`TEXTURE_INTRA` or
      :data:`TEXTURE_INTER`.
    """
    starts = [stream_region.advance(size) for size in n_bytes if size > 0]
    if not rec.active:
        return
    n = len(n_bytes)
    builder = _RowBuilder(n)
    mb_y = row * MB_SIZE
    for ref_fmap, *work in searches:
        _add_search(
            builder, ref_fmap, cur_fmap, mb_y, search_range,
            *(np.asarray(column, dtype=np.int64) for column in work),
        )
    for ref_fmap, halfpel, used in compensations:
        _add_compensation(builder, ref_fmap, mb_y, halfpel, used)
    _add_texture(rec, builder, True, cur_fmap, recon_fmap, mb_y, *texture)
    sizes = np.asarray(n_bytes, dtype=np.int64)
    _add_stream(builder, np.flatnonzero(sizes > 0), np.array(starts, dtype=np.int64),
                sizes[sizes > 0])
    builder.emit(rec)


def decode_row(rec, row: int, recon_fmap: FrameMap, compensations, texture) -> None:
    """One decoded macroblock row, as the per-MB emitters emit it.

    Per macroblock: :func:`mc_mb` for each reference it predicts from
    (``compensations`` as for :func:`encode_row`; a skipped macroblock's
    zero vector included), then :func:`mb_texture` (``*_dec``) unless it
    was skipped (``texture`` as for :func:`encode_row`).
    """
    if not rec.active:
        return
    builder = _RowBuilder(len(texture[0]))
    mb_y = row * MB_SIZE
    for ref_fmap, halfpel, used in compensations:
        _add_compensation(builder, ref_fmap, mb_y, halfpel, used)
    _add_texture(rec, builder, False, None, recon_fmap, mb_y, *texture)
    builder.emit(rec)


class _RowBuilder:
    """The batches of one macroblock row, emitter batch by emitter batch.

    Each batch a per-MB emitter sends is a *slot*, numbered by
    :meth:`slot` in the order the per-MB emitters send them; :meth:`add`
    takes a slot's batches for some of the row's macroblocks (flat event
    arrays and per-batch sizes).  :meth:`table` lays them out macroblock
    by macroblock, each macroblock's batches in slot order, and
    run-collapses them.
    """

    def __init__(self, n_mbs: int) -> None:
        self.n_mbs = n_mbs
        self.n_slots = 0
        self._parts: list[tuple] = []

    def slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def add(self, slot, kind, mbs, alu_ops, lines, counts, sizes=None) -> None:
        """Batches of ``slot``: a ``kind`` batch of ``sizes[i]`` events
        and ``alu_ops[i]`` ALU operations for each macroblock ``mbs[i]``.
        Without ``sizes``, ``lines`` and ``counts`` are ``(len(mbs), L)``,
        one row per batch."""
        if sizes is None:
            sizes = np.full(mbs.size, lines.shape[1], dtype=np.int64)
            lines, counts = lines.ravel(), counts.ravel()
        self._parts.append((slot, kind, mbs, alu_ops, lines, counts, sizes))

    def emit(self, rec) -> None:
        """Hand the row to the recorder's sinks as one table (a row
        without batches emits nothing)."""
        table = self.table(rec.phase)
        if len(table):
            rec.emit_table(table)

    def table(self, phase: str) -> BatchTable:
        slots, kinds, mbs, alu_ops, lines, counts, sizes = zip(*self._parts)
        per_part = [part.size for part in mbs]
        keys = np.concatenate(mbs) * self.n_slots + np.repeat(slots, per_part)
        order = np.argsort(keys, kind="stable")
        sizes = np.concatenate(sizes)
        first = np.cumsum(sizes) - sizes
        sizes = sizes[order]
        gather = _gather_runs(first[order], sizes)
        lines = np.concatenate(lines)[gather]
        counts = np.concatenate(counts)[gather]
        n_events, sizes = collapse_runs(lines, counts, sizes)
        bounds = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return BatchTable.of_columns(
            lines[:n_events],
            counts[:n_events],
            bounds,
            np.repeat(kinds, per_part)[order],
            np.concatenate(alu_ops)[order],
            np.zeros(sizes.size, dtype=np.int64),
            [phase],
        )


def _add_search(
    builder, ref_fmap, cur_fmap, mb_y, search_range,
    reads, candidates, evaluated, coverage, cover_rows,
) -> None:
    """:func:`me_search` for every macroblock of the row: the current
    block's read, then the window's."""
    n = MB_SIZE
    span = 2 * search_range + 1
    window = span + n - 1
    cols = np.arange(builder.n_mbs, dtype=np.int64)
    valid = cover_rows == window
    ref_total, cur_total, alu = _search_work(valid, reads, reads, candidates, evaluated)
    cur_total = np.maximum(cur_total, 1)
    # Block and window offsets modulo 32 alternate from column to column,
    # so the even and the odd columns each share one template.
    phases = [mbs for mbs in (cols[0::2], cols[1::2]) if mbs.size]

    cur = cur_fmap.y
    cur_slot = builder.slot()
    cur_start = cur.base + (BORDER + mb_y) * cur.stride + BORDER + n * cols
    for mbs in phases:
        start = cur_start[mbs]
        lines, byte_counts = _granule_template(
            int(start[0]) & (GRANULE_BYTES - 1), cur.stride, n, n
        )
        builder.add(
            cur_slot, KIND_READ, mbs, np.zeros(mbs.size, dtype=np.int64),
            lines + (start >> GRANULE_SHIFT)[:, None],
            _scaled_rows(byte_counts, cur_total[mbs]),
        )

    plane = ref_fmap.y
    window_slot = builder.slot()
    start = (
        plane.base + (BORDER + mb_y - search_range) * plane.stride
        + BORDER - search_range + n * cols
    )
    with_coverage = valid.any() and coverage.shape[1] >= window
    for mbs in phases:
        offset = int(start[mbs[0]]) & (GRANULE_BYTES - 1)
        template_lines, row_of, column_weight, exhaustive_rows = _search_template(
            offset, plane.stride, span
        )
        if with_coverage:
            row_weight = np.where(valid[mbs, None], coverage[mbs, :window], exhaustive_rows)
            weights = row_weight[:, row_of] * column_weight
            total_weight = weights.sum(axis=1)
        else:
            weights = (exhaustive_rows[row_of] * column_weight)[None, :]
            total_weight = np.full(mbs.size, weights.sum())
        # Per-granule totals: row weight x column weight, normalized to
        # the modelled read total (the per-MB float expression).
        scale = ref_total[mbs] / np.maximum(total_weight, 1)
        ref_counts = (weights * scale[:, None]).astype(np.int64)
        np.maximum(ref_counts, 1, out=ref_counts)
        ref_counts[total_weight == 0] = 1
        # Half-pel refinement re-reads the winner's neighbourhood.
        group_evaluated = evaluated[mbs]
        ref_counts += _halfpel_table(
            offset, plane.stride, span, max(int(group_evaluated.max()), 8)
        )[group_evaluated]
        builder.add(
            window_slot, KIND_READ, mbs, alu[mbs],
            template_lines + (start[mbs] >> GRANULE_SHIFT)[:, None], ref_counts,
        )


@functools.lru_cache(maxsize=256)
def _halfpel_table(offset: int, stride: int, span: int, max_evaluated: int):
    """:func:`_halfpel_counts` for 0 .. ``max_evaluated`` half-pel
    evaluations, one row each (row 0 all zero), read-only."""
    window = span + MB_SIZE - 1
    lines, _ = _granule_template(offset, stride, window, window)
    table = np.zeros((max_evaluated + 1, lines.size), dtype=np.int64)
    for evaluated in range(1, max_evaluated + 1):
        table[evaluated] = _halfpel_counts(offset, stride, span, evaluated * MB_SIZE**2 * 2)
    table.flags.writeable = False
    return table


def _add_compensation(builder, ref_fmap, mb_y, halfpel, used) -> None:
    """:func:`mc_mb` from one reference for the macroblocks ``used``."""
    mbs = np.flatnonzero(used)
    extra = np.asarray(halfpel, dtype=np.int64)[mbs] & 1
    pixels = MB_SIZE * MB_SIZE + 2 * 64
    alu = np.where(
        extra == 1, pixels * cm.MC_ALU_PER_PIXEL_HALF, pixels * cm.MC_ALU_PER_PIXEL_FULL
    )
    _add_mb_blocks(builder, builder.slot(), KIND_READ, ref_fmap, mb_y, mbs, alu, extra, (1, 2))


def _add_mb_blocks(builder, slot, kind, fmap, mb_y, mbs, alu, extra, reads) -> None:
    """:func:`_mb_lines` of macroblocks ``mbs``: each one's Y, U and V
    blocks, ``extra[i]`` (0 or 1) pixels wider and taller, each count
    multiplied by ``reads[extra[i]]``."""
    y, u, v = fmap.y, fmap.u, fmap.v
    cy = BORDER + mb_y // 2
    row_starts = (
        y.base + (BORDER + mb_y) * y.stride + BORDER,
        u.base + cy * u.stride + BORDER,
        v.base + cy * v.stride + BORDER,
    )
    pool_lines, pool_counts, pool_plane, pool_start, pool_size = _mb_row_pool(
        tuple(start & (GRANULE_BYTES - 1) for start in row_starts),
        (y.stride, u.stride, v.stride),
        reads,
    )
    # Plane offsets modulo 32 repeat every four macroblocks, which move
    # the Y block two granules and the U and V blocks one.
    key = (mbs & 3) + 4 * extra
    sizes = pool_size[key]
    gather = _gather_runs(pool_start[key], sizes)
    planes = pool_plane[gather]
    shift = np.array([start >> GRANULE_SHIFT for start in row_starts])[planes]
    shift += np.repeat(mbs >> 2, sizes) * _QUAD_GRANULES[planes]
    builder.add(slot, kind, mbs, alu, pool_lines[gather] + shift, pool_counts[gather], sizes)


#: Granules a plane's macroblock blocks move every four macroblocks (Y, U, V).
_QUAD_GRANULES = np.array([2, 1, 1], dtype=np.int64)


@functools.lru_cache(maxsize=256)
def _mb_row_pool(offsets: tuple, strides: tuple, reads: tuple):
    """Runs of a row's macroblock blocks by column phase and block growth.

    ``offsets`` are the row's Y, U and V starts modulo 32.  Template
    ``phase + 4 * extra`` holds the :func:`_mb_template` runs of a
    macroblock in column ``phase`` (mod 4), ``extra`` pixels grown, counts
    times ``reads[extra]``, its lines relative to the row's start granule
    in each plane.  Returns read-only ``(lines, counts, plane_of, start,
    size)``: the templates back to back and where each one is.
    """
    parts = []
    for extra, multiplier in enumerate(reads):
        for phase in range(4):
            block_starts = [
                offset + phase * width
                for offset, width in zip(offsets, (MB_SIZE, 8, 8))
            ]
            lines, counts, plane_of = _mb_template(
                tuple(start & (GRANULE_BYTES - 1) for start in block_starts),
                strides, extra, multiplier,
            )
            carry = np.array([start >> GRANULE_SHIFT for start in block_starts])
            parts.append((lines + carry[plane_of], counts, plane_of))
    size = np.array([part[0].size for part in parts], dtype=np.int64)
    pool = (
        *(np.concatenate([part[i] for part in parts]) for i in range(3)),
        np.cumsum(size) - size,
        size,
    )
    for array in pool:
        array.flags.writeable = False
    return pool


def _add_texture(
    rec, builder, encode, cur_fmap, recon_fmap, mb_y, kinds, n_coded_blocks, n_events
) -> None:
    """:func:`mb_texture` for the row's macroblocks that have texture."""
    kinds = np.asarray(kinds, dtype=np.int64)
    mbs = np.flatnonzero(kinds != TEXTURE_NONE)
    no_alu = np.zeros(mbs.size, dtype=np.int64)
    no_extra = no_alu
    if encode and cur_fmap is not None:
        # Read the six source blocks (DCT input + residual computation).
        _add_mb_blocks(
            builder, builder.slot(), KIND_READ, cur_fmap, mb_y, mbs, no_alu, no_extra, (2,)
        )
    if encode:
        blocks = np.full(mbs.size, 6, dtype=np.int64)
    else:
        blocks = np.maximum(np.asarray(n_coded_blocks, dtype=np.int64)[mbs], 1)
    loads, stores, alu = _texture_work(
        encode,
        kinds[mbs] == TEXTURE_INTRA,
        blocks,
        np.asarray(n_events, dtype=np.int64)[mbs],
    )
    scratch_lines, scratch_bytes = _scratch_lines(*_scratch_region(rec))
    all_scratch = np.tile(scratch_lines, mbs.size)
    sizes = np.full(mbs.size, scratch_lines.size, dtype=np.int64)
    for kind, totals in ((KIND_READ, loads), (KIND_WRITE, stores)):
        builder.add(
            builder.slot(), kind, mbs, no_alu, all_scratch,
            _scaled_rows(scratch_bytes, totals).ravel(), sizes,
        )

    # Reconstruction write-back into the frame store.
    _add_mb_blocks(
        builder, builder.slot(), KIND_WRITE, recon_fmap, mb_y, mbs, no_alu, no_extra, (1,)
    )
    builder.add(
        builder.slot(), KIND_READ, mbs, alu, _NO_RUNS, _NO_RUNS, np.zeros(mbs.size, dtype=np.int64)
    )


#: The runs of a compute-only batch.
_NO_RUNS = np.zeros(0, dtype=np.int64)


def _add_stream(builder, mbs, starts, n_bytes) -> None:
    """:func:`stream_write` of ``n_bytes`` (all positive) at ``starts``."""
    lines, counts, sizes = _sequential_runs(starts, n_bytes)
    builder.add(
        builder.slot(), KIND_WRITE, mbs, n_bytes * cm.STREAM_ALU_PER_BYTE, lines, counts, sizes
    )


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
