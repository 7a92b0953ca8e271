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
- :class:`MacroblockRows`: a VOP's parsed macroblock rows as dense
  arrays, each row parsed in one call to ``_parse_kernel.c`` when it
  can be; the decoder's ``_parse_mb_row`` stays the parser of record and
  re-parses any row the kernel hands back.

Everything here is bit-exact with the per-macroblock reference functions
in :mod:`repro.codec.motion` and :mod:`repro.codec.decoder` (enforced by
``tests/codec/test_batched_kernels.py``,
``tests/codec/test_search_kernel.py`` and
``tests/codec/test_parse_kernel.py``); the scan order and tie-breaking
of the scalar loops are replicated exactly.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec import vlc
from repro.codec.motion import ZERO_MV_BIAS, MotionVector
from repro.codec.predict import DEFAULT_DC
from repro.codec.quant import ZIGZAG
from repro.codec.types import VopType
from repro.native.build import load_library
from repro.video.yuv import MB_SIZE

_SAD_KERNEL_SOURCE = Path(__file__).with_name("_sad_kernel.c")

_sad_lib = None
_sad_tried = False


def _load_sad_kernel():
    """The compiled plane kernel (``sad_full_search`` and
    ``compensate_blocks``), or ``None``."""
    global _sad_lib, _sad_tried
    if _sad_tried:
        return _sad_lib
    _sad_tried = True
    lib = load_library(_SAD_KERNEL_SOURCE, "sadsearch")
    if lib is None:
        return None
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    lib.sad_full_search.argtypes = [pointer] * 2 + [count] * 9 + [pointer] * 2
    lib.compensate_blocks.argtypes = [pointer] + [count] * 3 + [pointer] * 5
    for fn in (lib.sad_full_search, lib.compensate_blocks):
        fn.restype = None
    _sad_lib = lib
    return lib


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

    def row_work(self, row: int):
        """Row ``row``'s work model, per MB, as the trace's row emitter
        (``repro.trace.kernels.encode_row``) reads it: ``(reads,
        candidates, evaluated, coverage, cover_rows)``."""
        return (
            self.reads[row], self.candidates[row], self.evaluated[row],
            self.coverage[row], self.cover_rows[row],
        )


#: int64 values per macroblock record: every PlaneSearch field but coverage.
SEARCH_RECORD_FIELDS = 10


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
    lib = _load_sad_kernel()
    if lib is None:
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
    records = np.empty((mb_rows, mb_cols, SEARCH_RECORD_FIELDS), dtype=np.int64)
    coverage = np.zeros((mb_rows, mb_cols, 2 * search_range + MB_SIZE), dtype=np.int64)
    lib.sad_full_search(
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
    Bit-exact with :func:`repro.codec.motion.compensate` per block.  The
    plane kernel's ``compensate_blocks`` mixes every block in one call;
    without it the blocks are grouped by half-pel phase so each group is
    one fancy-index gather plus one vectorized bilinear mix.
    """
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    mv_dx = np.asarray(mv_dx, dtype=np.int64)
    mv_dy = np.asarray(mv_dy, dtype=np.int64)
    if ys.ndim != 1 or not ys.shape == xs.shape == mv_dx.shape == mv_dy.shape:
        raise ValueError("origins and displacements must be flat, of one length")
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
    lib = _load_sad_kernel()
    if lib is not None:
        reference = np.ascontiguousarray(reference, dtype=np.uint8)
        lib.compensate_blocks(
            reference.ctypes.data, reference.strides[0], ys.size, size,
            src_y.ctypes.data, src_x.ctypes.data, rys.ctypes.data,
            rxs.ctypes.data, out.ctypes.data,
        )
        return out
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


# -- macroblock-row parse -----------------------------------------------------

_PARSE_KERNEL_SOURCE = Path(__file__).with_name("_parse_kernel.c")

_parse_fn = None
_parse_tables = None
_parse_tried = False


def _load_parse_kernel():
    """The compiled ``parse_mb_row`` entry point, or ``None``."""
    global _parse_fn, _parse_tables, _parse_tried
    if _parse_tried:
        return _parse_fn
    _parse_tried = True
    lib = load_library(_PARSE_KERNEL_SOURCE, "mbparse")
    if lib is None:
        return None
    fn = lib.parse_mb_row
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    fn.restype = ctypes.c_int64
    # The kernel's symbol codes (see _parse_kernel.c).
    _parse_tables = (
        vlc.MCBPC_TABLE.node_array(lambda symbol: 4 * symbol[0] + symbol[1]),
        vlc.CBPY_TABLE.node_array(int),
        vlc.COEFF_TABLE.node_array(
            lambda symbol: 0 if symbol == vlc.ESCAPE
            else symbol[0] << 12 | symbol[1] << 6 | symbol[2]
        ),
        ZIGZAG.astype(np.int64),
    )
    _parse_fn = fn
    return fn


def parse_kernel_available() -> bool:
    """True when the compiled macroblock-row parser can be used."""
    return _load_parse_kernel() is not None


#: Kinds of a parsed macroblock.
KIND_SKIPPED, KIND_INTRA, KIND_INTER = range(3)

#: Fields of a parsed macroblock's int64 record (the parse kernel's
#: layout): kind, coded-block pattern, coefficient events, then the
#: forward and the backward vector, each as (present, dx, dy).
(
    F_KIND, F_CBP, F_N_EVENTS, F_FWD, F_FWD_DX, F_FWD_DY, F_BWD, F_BWD_DX, F_BWD_DY,
) = range(9)
N_FIELDS = 9

#: Slots of the parse kernel's per-VOP context table (see _parse_kernel.c).
(
    _C_DATA, _C_N_BITS, _C_VOP_TYPE, _C_MB_COLS, _C_CROSS_ROW,
    _C_MCBPC, _C_CBPY, _C_COEFF, _C_RASTER,
    _C_ESC_RUN_BITS, _C_ESC_LEVEL_BITS, _C_DEFAULT_DC,
    _C_INFO, _C_LEVELS, _C_GRID, _C_BORDER,
) = range(16)
_C_PAST, _C_FUTURE, _C_PRED = 16, 20, 24
_N_CTX = 36


class MacroblockRows:
    """The parsed macroblock rows of one VOP, as dense arrays.

    ``info[row, col]`` is a macroblock's int64 record (the ``F_*``
    fields) and ``levels[row, col]`` its six blocks of quantized levels
    in raster order: an intra macroblock's DCs and ACs with prediction
    resolved, an inter macroblock's coded blocks, zeros elsewhere.

    :meth:`parse` fills a row in one call to the C parser when it is
    available.  The decoder's Python parser fills the rows it hands back
    (:meth:`python_row` and :meth:`pack`).  For P-VOP vector prediction
    the kernel keeps its own int64 ``(rows, cols, 2)`` grid, which
    :meth:`python_row` keeps equal to the decoder's ``MotionVector``
    grid wherever the Python parser reads it.
    """

    def __init__(
        self,
        data,
        vop_type: VopType,
        mb_rows: int,
        mb_cols: int,
        cross_row: bool,
        past,
        future,
        border: int,
    ) -> None:
        self.info = np.zeros((mb_rows, mb_cols, N_FIELDS), dtype=np.int64)
        self.levels = np.zeros((mb_rows, mb_cols, 6, 64), dtype=np.int32)
        self._kernel = _load_parse_kernel()
        self.mv_grid = None
        if self._kernel is None:
            return
        if vop_type is not VopType.I:
            self.mv_grid = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
        # The context holds raw addresses: keep every array they point into.
        self._buffer = np.frombuffer(data, dtype=np.uint8)
        self._predictors = None
        ctx = np.zeros(_N_CTX, dtype=np.int64)
        mcbpc, cbpy, coeff, raster = _parse_tables
        ctx[_C_DATA] = self._buffer.ctypes.data
        ctx[_C_N_BITS] = self._buffer.size * 8
        ctx[_C_VOP_TYPE] = vop_type
        ctx[_C_MB_COLS] = mb_cols
        ctx[_C_CROSS_ROW] = cross_row
        ctx[_C_MCBPC] = mcbpc.ctypes.data
        ctx[_C_CBPY] = cbpy.ctypes.data
        ctx[_C_COEFF] = coeff.ctypes.data
        ctx[_C_RASTER] = raster.ctypes.data
        ctx[_C_ESC_RUN_BITS] = vlc.ESCAPE_RUN_BITS
        ctx[_C_ESC_LEVEL_BITS] = vlc.ESCAPE_LEVEL_BITS
        ctx[_C_DEFAULT_DC] = DEFAULT_DC
        ctx[_C_INFO] = self.info.ctypes.data
        ctx[_C_LEVELS] = self.levels.ctypes.data
        ctx[_C_GRID] = 0 if self.mv_grid is None else self.mv_grid.ctypes.data
        ctx[_C_BORDER] = border
        for slot, store in ((_C_PAST, past), (_C_FUTURE, future)):
            ctx[slot : slot + 4] = -1 if store is None else store.y.shape + store.u.shape
        self._ctx = ctx
        self._ctx_address = ctx.ctypes.data

    def parse(self, reader, row: int, predictors) -> bool:
        """Parse macroblock row ``row`` from the reader's position.

        ``predictors`` map an I-VOP's ``"y"``, ``"u"`` and ``"v"`` to
        their :class:`~repro.codec.predict.AcDcPredictor`, which the
        kernel reads and updates in place (None in P- and B-VOPs).
        True when the kernel parsed the row and moved the reader past
        it; False, with the reader untouched, when there is no kernel or
        it handed the row back.
        """
        if self._kernel is None:
            return False
        if predictors is not self._predictors:
            self._predictors = predictors
            if predictors is not None:
                self._ctx[_C_PRED:] = [
                    array.ctypes.data
                    for plane in "yuv"
                    for array in predictors[plane].arrays()
                ]
        end = self._kernel(self._ctx_address, reader.bit_position, row)
        if end < 0:
            return False
        reader.seek_bits(end)
        return True

    @contextmanager
    def python_row(self, row: int, mv_grid):
        """Clear row ``row`` for the Python parser and, around it, carry
        the vector grid rows it reads between the kernel's grid and
        ``mv_grid``."""
        self.info[row] = 0
        self.levels[row] = 0
        if self.mv_grid is None:
            yield
            return
        for above in (row - 1, row):
            if above >= 0:
                mv_grid[above] = [
                    MotionVector(dx, dy) for dx, dy in self.mv_grid[above].tolist()
                ]
        try:
            yield
        finally:
            self.mv_grid[row] = [(mv.dx, mv.dy) for mv in mv_grid[row]]

    def pack(self, row: int, col: int, record, cbp: int, n_events: int) -> None:
        """Store one macroblock as the decoder's parser yields it."""
        residual, past_mv, future_mv = record
        if residual is None:
            kind = KIND_SKIPPED
        elif past_mv is None and future_mv is None:
            kind = KIND_INTRA
            self.levels[row, col] = residual.reshape(6, 64)
        else:
            kind = KIND_INTER
            for index, rasters, values in residual:
                self.levels[row, col, index, rasters] = values
        self.info[row, col] = (
            kind, cbp, n_events,
            *((0, 0, 0) if past_mv is None else (1, past_mv.dx, past_mv.dy)),
            *((0, 0, 0) if future_mv is None else (1, future_mv.dx, future_mv.dy)),
        )
