"""Frame-level batched codec kernels (the codec's fast path).

The reference encoder/decoder (:mod:`repro.codec.encoder`,
:mod:`repro.codec.decoder`) walk macroblocks one at a time through
Python loops -- faithful to the scalar code the paper profiles, but slow.
This module lifts the pixel-level hot paths to whole-VOP granularity:

- :func:`search_plane`: the whole motion search of a VOP in one call to
  a small C kernel (``_sad_kernel.c``, compiled on demand via
  :mod:`repro.native.build`, same playbook as the simulator fast path):
  per macroblock, the zero-biased full-pel search over the clamped
  window, its early-termination work model (the read counts and row
  coverage the trace replays) and the half-pel refinement.  It serves
  traced, untraced and clamped searches alike.
- :func:`full_search_plane` / :func:`half_pel_refine_plane`: the same
  search as two NumPy sweeps (one sliding-window pass per vertical
  offset, then one 18x18 patch gather per MB).  With the per-MB search
  of :mod:`repro.codec.motion`, they are the fallback when no compiler
  is available.
- :func:`compensate_many`: motion-compensated prediction for many blocks
  at once, grouped by half-pel phase.
- :func:`gather_plane_blocks` / :func:`scatter_plane_blocks`: plane <->
  ``(rows, cols, n, n)`` block-tensor reshapes.
- :func:`intra_decisions`: the VM intra/inter mode decision for all MBs.

Everything here is bit-exact with the per-macroblock reference functions
in :mod:`repro.codec.motion` (enforced by
``tests/codec/test_batched_kernels.py`` and
``tests/codec/test_search_kernel.py``); the scan order and tie-breaking
of the scalar loops are replicated exactly.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.motion import ZERO_MV_BIAS, MotionVector, SearchResult
from repro.native.build import load_library
from repro.video.yuv import MB_SIZE

_SAD_KERNEL_SOURCE = Path(__file__).with_name("_sad_kernel.c")

_sad_fn = None
_sad_tried = False


def _load_sad_kernel():
    """The compiled ``sad_full_search`` entry point, or ``None``."""
    global _sad_fn, _sad_tried
    if _sad_tried:
        return _sad_fn
    _sad_tried = True
    lib = load_library(_SAD_KERNEL_SOURCE, "sadsearch")
    if lib is None:
        return None
    fn = lib.sad_full_search
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 9 + [ctypes.c_void_p] * 2
    fn.restype = None
    _sad_fn = fn
    return fn


def sad_kernel_available() -> bool:
    """True when the compiled SAD search kernel can be used."""
    return _load_sad_kernel() is not None


@dataclass(frozen=True)
class PlaneSearch:
    """The motion search of every macroblock of a VOP.

    Every field but ``coverage`` is an int64 ``(mb_rows, mb_cols)`` array;
    the field order is the kernel's record layout.  ``full_*`` describe
    the full-pel winner (displacement in full pixels, unbiased SAD) and
    ``candidates``/``reads`` the full-pel work, as
    :func:`repro.codec.motion.full_search` with ``model_work=True``
    reports them; ``reads`` counts both reference and current pixels.
    ``dx``/``dy``/``sad``/``evaluated`` are the final result after
    half-pel refinement (displacement in half-pel units).  ``coverage``
    holds each MB's window-row coverage in its first ``cover_rows``
    entries.
    """

    full_dx: np.ndarray
    full_dy: np.ndarray
    full_sad: np.ndarray
    candidates: np.ndarray
    reads: np.ndarray
    cover_rows: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    sad: np.ndarray
    evaluated: np.ndarray
    coverage: np.ndarray

    def search_results(self) -> list[list[tuple[SearchResult, int]]]:
        """Per MB, ``(full-pel SearchResult, half-pel evaluations)``.

        The same values the per-MB reference search hands to the trace's
        ``me_search`` hook.
        """
        mb_rows, mb_cols = self.dx.shape
        fields = (
            self.full_dx, self.full_dy, self.full_sad, self.candidates,
            self.reads, self.cover_rows, self.evaluated,
        )
        per_mb = zip(
            *(f.ravel().tolist() for f in fields),
            self.coverage.reshape(mb_rows * mb_cols, -1),
        )
        cells = [
            (
                SearchResult(
                    mv=MotionVector(2 * fdx, 2 * fdy),
                    sad=sad,
                    candidates_evaluated=candidates,
                    ref_reads=reads,
                    cur_reads=reads,
                    row_coverage=coverage[:cover_rows],
                ),
                evaluated,
            )
            for fdx, fdy, sad, candidates, reads, cover_rows, evaluated, coverage
            in per_mb
        ]
        return [cells[row * mb_cols : (row + 1) * mb_cols] for row in range(mb_rows)]


#: int64 values per macroblock record: every PlaneSearch field but coverage.
_RECORD_FIELDS = 10


def search_plane(
    reference: np.ndarray,
    current: np.ndarray,
    border: int,
    mb_rows: int,
    mb_cols: int,
    search_range: int,
    half_pel: bool,
) -> PlaneSearch | None:
    """Motion search for every macroblock of a plane in one kernel call.

    ``reference`` and ``current`` are full padded planes (border pixels on
    every side); macroblock ``(mr, mc)`` sits at ``(border + 16*mr,
    border + 16*mc)``.  Windows clamp to the plane, so any
    ``search_range`` works.  Per MB the result equals
    :func:`repro.codec.motion.full_search` (``model_work=True``)
    followed, when ``half_pel`` is set, by
    :func:`repro.codec.motion.half_pel_refine`.  Returns None when the
    kernel is unavailable.
    """
    kernel = _load_sad_kernel()
    if kernel is None:
        return None
    if reference.shape != current.shape or reference.ndim != 2:
        raise ValueError("reference and current must be planes of one shape")
    height, width = reference.shape
    if (
        min(border, mb_rows, mb_cols, search_range) < 0
        or border + mb_rows * MB_SIZE > height
        or border + mb_cols * MB_SIZE > width
    ):
        raise ValueError("macroblock grid or search range does not fit the plane")
    reference = np.ascontiguousarray(reference, dtype=np.uint8)
    current = np.ascontiguousarray(current, dtype=np.uint8)
    records = np.empty((mb_rows, mb_cols, _RECORD_FIELDS), dtype=np.int64)
    coverage = np.zeros((mb_rows, mb_cols, 2 * search_range + MB_SIZE), dtype=np.int64)
    kernel(
        reference.ctypes.data,
        current.ctypes.data,
        reference.strides[0],
        height,
        width,
        mb_rows,
        mb_cols,
        border,
        search_range,
        ZERO_MV_BIAS,
        int(half_pel),
        records.ctypes.data,
        coverage.ctypes.data,
    )
    return PlaneSearch(*np.moveaxis(records, -1, 0), coverage=coverage)


def full_search_plane(
    reference: np.ndarray,
    current: np.ndarray,
    border: int,
    mb_rows: int,
    mb_cols: int,
    search_range: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-pel exhaustive SAD search for every macroblock of a plane.

    The planes are laid out as for :func:`search_plane`.  Requires
    ``search_range <= border`` so that no window is ever clamped -- then
    the result is identical to :func:`repro.codec.motion.full_search` per
    MB (same row-major argmin tie-break, same zero-MV bias).  Runs the
    zero-seeded kernel when it is available and a NumPy sweep otherwise.

    Returns ``(dx, dy, sad)`` int32 arrays of shape ``(mb_rows,
    mb_cols)`` with displacements in **full-pel** units.
    """
    if search_range > border:
        raise ValueError(
            f"search_range {search_range} exceeds plane border {border}; "
            "use the per-macroblock reference search"
        )
    if reference.shape != current.shape:
        raise ValueError("reference and current plane shapes differ")
    search = search_plane(
        reference, current, border, mb_rows, mb_cols, search_range, half_pel=False
    )
    if search is not None:
        full = (search.full_dx, search.full_dy, search.full_sad)
        return tuple(a.astype(np.int32) for a in full)
    return _full_search_plane_numpy(
        np.ascontiguousarray(reference, dtype=np.uint8),
        np.ascontiguousarray(current, dtype=np.uint8),
        border, mb_rows, mb_cols, search_range,
    )


def _full_search_plane_numpy(reference, current, border, mb_rows, mb_cols, search_range):
    """Pure-NumPy sweep: one sliding-window pass per vertical offset."""
    n = MB_SIZE
    span = 2 * search_range + 1
    cur = current[
        border : border + mb_rows * n, border : border + mb_cols * n
    ].astype(np.int16)
    # (rows, y, cols, x): current blocks addressed per (MB row, MB col).
    cur_blocks = cur.reshape(mb_rows, n, mb_cols, n)
    pos = np.arange(mb_cols)[:, None] * n + np.arange(span)[None, :]
    sads = np.empty((mb_rows, mb_cols, span, span), dtype=np.int32)
    for iy, dy in enumerate(range(-search_range, search_range + 1)):
        strip = reference[
            border + dy : border + dy + mb_rows * n,
            border - search_range : border + mb_cols * n + search_range,
        ].astype(np.int16)
        win = sliding_window_view(strip, n, axis=1)
        # (rows, y, candidate start, x) -> select each MB's span of starts.
        winr = win.reshape(mb_rows, n, -1, n)
        sel = winr[:, :, pos, :]  # (rows, y, cols, span, x)
        diff = np.abs(sel - cur_blocks[:, :, :, None, :])
        sads[:, :, iy, :] = diff.sum(axis=(1, 4), dtype=np.int32)
    flat = sads.reshape(mb_rows, mb_cols, span * span)
    center = search_range * span + search_range
    flat[:, :, center] -= ZERO_MV_BIAS
    idx = flat.argmin(axis=2)
    sad = np.take_along_axis(flat, idx[..., None], axis=2)[..., 0]
    zero = idx == center
    sad = np.where(zero, sad + ZERO_MV_BIAS, sad).astype(np.int32)
    dy = (idx // span - search_range).astype(np.int32)
    dx = (idx % span - search_range).astype(np.int32)
    return dx, dy, sad


def half_pel_refine_plane(
    reference: np.ndarray,
    current: np.ndarray,
    border: int,
    full_dx: np.ndarray,
    full_dy: np.ndarray,
    full_sad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-pel refinement of every macroblock's full-pel winner.

    Bit-exact with :func:`repro.codec.motion.half_pel_refine` applied per
    MB (same candidate scan order, strict-less updates, and plane-edge
    exclusions).  Returns ``(dx, dy, sad, evaluated)`` where ``dx``/``dy``
    are in **half-pel** units.
    """
    n = MB_SIZE
    height, width = reference.shape
    mb_rows, mb_cols = full_dx.shape
    y0 = border + np.arange(mb_rows, dtype=np.int64)[:, None] * n
    x0 = border + np.arange(mb_cols, dtype=np.int64)[None, :] * n
    py = y0 + full_dy.astype(np.int64)  # full-pel winner origin per MB
    px = x0 + full_dx.astype(np.int64)
    # One 18x18 patch per MB covers all nine half-pel candidates; indices
    # are clipped only where the corresponding candidate is excluded by
    # the reference bounds check, so clipping never alters a used pixel.
    ar = np.arange(n + 2, dtype=np.int64)
    rows = np.clip(py[:, :, None] - 1 + ar[None, None, :], 0, height - 1)
    cols = np.clip(px[:, :, None] - 1 + ar[None, None, :], 0, width - 1)
    patch = reference[rows[:, :, :, None], cols[:, :, None, :]].astype(np.uint16)
    cur = current[
        border : border + mb_rows * n, border : border + mb_cols * n
    ].astype(np.int32)
    cur_blocks = cur.reshape(mb_rows, n, mb_cols, n).transpose(0, 2, 1, 3)
    # Reference bounds check in half-pel units, per candidate offset.
    ok_up = py >= 1
    ok_down = py + n + 1 <= height
    ok_left = px >= 1
    ok_right = px + n + 1 <= width
    best_sad = full_sad.astype(np.int32).copy()
    best_dx = (2 * full_dx).astype(np.int32)
    best_dy = (2 * full_dy).astype(np.int32)
    evaluated = np.zeros((mb_rows, mb_cols), dtype=np.int32)
    for dy_half in (-1, 0, 1):
        for dx_half in (-1, 0, 1):
            if dx_half == 0 and dy_half == 0:
                continue
            valid = np.ones((mb_rows, mb_cols), dtype=bool)
            if dy_half == -1:
                valid &= ok_up
            elif dy_half == 1:
                valid &= ok_down
            if dx_half == -1:
                valid &= ok_left
            elif dx_half == 1:
                valid &= ok_right
            oy = 0 if dy_half == -1 else 1
            ox = 0 if dx_half == -1 else 1
            ry = dy_half & 1
            rx = dx_half & 1
            region = patch[:, :, oy : oy + n + ry, ox : ox + n + rx]
            if rx and not ry:
                pred = (region[:, :, :, :-1] + region[:, :, :, 1:] + 1) >> 1
            elif ry and not rx:
                pred = (region[:, :, :-1, :] + region[:, :, 1:, :] + 1) >> 1
            else:
                pred = (
                    region[:, :, :-1, :-1]
                    + region[:, :, :-1, 1:]
                    + region[:, :, 1:, :-1]
                    + region[:, :, 1:, 1:]
                    + 2
                ) >> 2
            sad = np.abs(pred.astype(np.int32) - cur_blocks).sum(
                axis=(2, 3), dtype=np.int32
            )
            evaluated += valid
            win = valid & (sad < best_sad)
            best_sad[win] = sad[win]
            best_dx[win] = 2 * full_dx[win] + dx_half
            best_dy[win] = 2 * full_dy[win] + dy_half
    return best_dx, best_dy, best_sad, evaluated


def compensate_many(
    reference: np.ndarray,
    ys: np.ndarray,
    xs: np.ndarray,
    mv_dx: np.ndarray,
    mv_dy: np.ndarray,
    size: int,
) -> np.ndarray:
    """Motion-compensated predictions for many blocks of one plane.

    ``ys``/``xs`` are block origins in the *current* frame (flat arrays),
    ``mv_dx``/``mv_dy`` the per-block displacements in half-pel units.
    Bit-exact with :func:`repro.codec.motion.compensate` per block; the
    blocks are grouped by half-pel phase so each group is one fancy-index
    gather plus one vectorized bilinear mix.
    """
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    mv_dx = np.asarray(mv_dx, dtype=np.int64)
    mv_dy = np.asarray(mv_dy, dtype=np.int64)
    height, width = reference.shape
    fx, rxs = mv_dx >> 1, mv_dx & 1
    fy, rys = mv_dy >> 1, mv_dy & 1
    src_y = ys + fy
    src_x = xs + fx
    need_y = size + rys
    need_x = size + rxs
    if (
        (src_y < 0).any()
        or (src_x < 0).any()
        or (src_y + need_y > height).any()
        or (src_x + need_x > width).any()
    ):
        raise ValueError("compensation source escapes reference plane")
    out = np.empty((ys.size, size, size), dtype=np.uint8)
    ar = np.arange(size + 1, dtype=np.int64)
    for ry in (0, 1):
        for rx in (0, 1):
            sel = np.flatnonzero((rys == ry) & (rxs == rx))
            if not sel.size:
                continue
            ny, nx = size + ry, size + rx
            rows = src_y[sel, None] + ar[None, :ny]
            cols = src_x[sel, None] + ar[None, :nx]
            patch = reference[rows[:, :, None], cols[:, None, :]].astype(np.uint16)
            if not rx and not ry:
                mixed = patch
            elif rx and not ry:
                mixed = (patch[:, :, :-1] + patch[:, :, 1:] + 1) >> 1
            elif ry and not rx:
                mixed = (patch[:, :-1, :] + patch[:, 1:, :] + 1) >> 1
            else:
                mixed = (
                    patch[:, :-1, :-1]
                    + patch[:, :-1, 1:]
                    + patch[:, 1:, :-1]
                    + patch[:, 1:, 1:]
                    + 2
                ) >> 2
            out[sel] = mixed.astype(np.uint8)
    return out


def chroma_mv(mv_dx: np.ndarray, mv_dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chrominance displacement: half the luma MV, rounded toward zero."""
    cdx = np.where(mv_dx >= 0, mv_dx // 2, -((-mv_dx) // 2))
    cdy = np.where(mv_dy >= 0, mv_dy // 2, -((-mv_dy) // 2))
    return cdx, cdy


def predict_many(
    ref_y: np.ndarray,
    ref_u: np.ndarray,
    ref_v: np.ndarray,
    mb_ys: np.ndarray,
    mb_xs: np.ndarray,
    mv_dx: np.ndarray,
    mv_dy: np.ndarray,
    border: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Six-block motion-compensated predictions for many macroblocks.

    ``mb_ys``/``mb_xs`` are macroblock origins in frame coordinates;
    ``mv_dx``/``mv_dy`` luma displacements in half-pel units.  Returns
    ``(predictions, luma)``: the ``(n, 6, 8, 8)`` float64 block tensor in
    the encoder's block order (four luma quadrants, U, V) plus the raw
    ``(n, 16, 16)`` uint8 luma predictions (used for B-VOP SAD).
    """
    mb_ys = np.asarray(mb_ys, dtype=np.int64)
    mb_xs = np.asarray(mb_xs, dtype=np.int64)
    mv_dx = np.asarray(mv_dx, dtype=np.int64)
    mv_dy = np.asarray(mv_dy, dtype=np.int64)
    luma = compensate_many(
        ref_y, border + mb_ys, border + mb_xs, mv_dx, mv_dy, MB_SIZE
    )
    cdx, cdy = chroma_mv(mv_dx, mv_dy)
    cys = border + mb_ys // 2
    cxs = border + mb_xs // 2
    u = compensate_many(ref_u, cys, cxs, cdx, cdy, 8)
    v = compensate_many(ref_v, cys, cxs, cdx, cdy, 8)
    prediction = np.empty((mb_ys.size, 6, 8, 8), dtype=np.float64)
    # Same block order as the encoder's LUMA_BLOCK_OFFSETS + U + V.
    prediction[:, 0] = luma[:, 0:8, 0:8]
    prediction[:, 1] = luma[:, 0:8, 8:16]
    prediction[:, 2] = luma[:, 8:16, 0:8]
    prediction[:, 3] = luma[:, 8:16, 8:16]
    prediction[:, 4] = u
    prediction[:, 5] = v
    return prediction, luma


def gather_plane_blocks(
    plane: np.ndarray, border: int, rows: int, cols: int, n: int
) -> np.ndarray:
    """The plane interior as a ``(rows, cols, n, n)`` block tensor (copy)."""
    interior = plane[border : border + rows * n, border : border + cols * n]
    return np.ascontiguousarray(
        interior.reshape(rows, n, cols, n).transpose(0, 2, 1, 3)
    )


def scatter_plane_blocks(
    plane: np.ndarray, blocks: np.ndarray, border: int
) -> None:
    """Write a ``(rows, cols, n, n)`` block tensor into a plane interior."""
    rows, cols, n, _ = blocks.shape
    plane[border : border + rows * n, border : border + cols * n] = (
        blocks.transpose(0, 2, 1, 3).reshape(rows * n, cols * n)
    )


def intra_decisions(cur_blocks: np.ndarray, inter_sads: np.ndarray) -> np.ndarray:
    """The VM intra/inter decision for every macroblock at once.

    ``cur_blocks`` is the ``(rows, cols, 16, 16)`` current-luma tensor,
    ``inter_sads`` the (biased) inter SADs.  Bit-exact with
    :func:`repro.codec.motion.intra_inter_decision`: the block mean is
    truncated exactly as ``int(pixels.mean())`` does (pixel sums are
    non-negative, so floor division is truncation).
    """
    pixels = cur_blocks.astype(np.int32)
    sums = pixels.sum(axis=(2, 3))
    means = sums // (MB_SIZE * MB_SIZE)
    deviation = np.abs(pixels - means[:, :, None, None]).sum(axis=(2, 3))
    return deviation < inter_sads - 2 * MB_SIZE * MB_SIZE
