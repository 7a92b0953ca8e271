"""Direct-geometry oracle for the template-driven macroblock emitters.

These are :func:`~repro.trace.kernels.me_search`,
:func:`~repro.trace.kernels.mc_mb` and
:func:`~repro.trace.kernels.mb_texture` as they read before the emitters
took their window, Y/U/V and scratch geometry from cached templates:
every call recomputes the search window's rows and column coverage, each
plane's runs and the scratch region's scaled counts from the addresses.
Only the differential tests use them.
"""

from __future__ import annotations

import numpy as np

from repro.codec.framestore import BORDER
from repro.memsim.events import GRANULE_SHIFT
from repro.trace import costmodel as cm
from repro.trace.kernels import _scaled_counts, _sequential_lines, _strided_lines
from repro.trace.layout import FrameMap, LinearRegion
from repro.video.yuv import MB_SIZE


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
    if not rec.active:
        return
    n = MB_SIZE
    span = 2 * search_range + 1
    window = span + n - 1
    n_candidates = search.candidates_evaluated

    if search.row_coverage is not None and search.row_coverage.size == window:
        row_weight = search.row_coverage
        ref_total = search.ref_reads
        cur_total = search.cur_reads + halfpel_evals * n * n
    else:
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
    lines, byte_counts = _strided_lines(
        ref_fmap.y.base, ref_fmap.y.stride, y0, x0, window, window
    )
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
    if not rec.active:
        return
    encode = kind.endswith("enc")
    intra = kind.startswith("intra")
    scratch = _scratch_region(rec)
    s_lines, s_byte_counts = _sequential_lines(scratch.base, scratch.size)

    if encode and cur_fmap is not None:
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

    lines, counts = _mb_lines(recon_fmap, mb_y, mb_x)
    rec.emit_write(lines, counts)

    coeffs = 64 * pipeline_blocks
    alu = pipeline_blocks * cm.DCT_ALU_PER_BLOCK
    if encode:
        alu += pipeline_blocks * cm.DCT_ALU_PER_BLOCK
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
        alu += 64 * pipeline_blocks
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
