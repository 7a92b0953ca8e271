"""Frame-level batched codec kernels (the codec's fast path).

The reference encoder/decoder (:mod:`repro.codec.encoder`,
:mod:`repro.codec.decoder`) walk macroblocks one at a time through
Python loops -- faithful to the scalar code the paper profiles, but slow.
This module lifts the pixel-level hot paths to whole-VOP granularity.
Each of these is one call to a small C kernel, the plane kernel
(``_sad_kernel.c``, compiled on demand via :mod:`repro.native.build`,
same playbook as the simulator fast path):

- :func:`search_plane`: the whole motion search of a VOP.  Per
  macroblock, the zero-biased full-pel search over the clamped window,
  its early-termination work model (the read counts and row coverage
  the trace replays) and the half-pel refinement.  It serves traced,
  untraced and clamped searches alike.
- the texture path around the DCT matmuls: :func:`predict_many`
  (six-block motion compensation of many macroblocks from one reference
  store), :func:`bidirectional_predict` (the B-VOP mode decision and
  mix), :func:`quantize_blocks` / :func:`dequantize_blocks` (both
  methods of :mod:`repro.codec.quant`) and :func:`store_macroblocks`
  (round, clip and write reconstructed macroblocks into a frame store).

They have no second body: called without the kernel they raise
``RuntimeError``, and without a compiler the codec runs its reference
engine instead (:func:`repro.codec.engine.codec_engine`), whose
:func:`repro.codec.motion.full_search`,
:func:`~repro.codec.motion.half_pel_refine`,
:func:`~repro.codec.motion.compensate` and :mod:`repro.codec.quant` are
their oracles.  Beside them:

- :func:`gather_plane_blocks`: a plane as a ``(rows, cols, n, n)`` block
  tensor.
- :func:`intra_decisions`: the VM intra/inter mode decision for all MBs.
- :class:`MacroblockRows`: a VOP's parsed macroblock rows as dense
  arrays, each row parsed in one call to ``_parse_kernel.c`` when it
  can be; the decoder's ``_parse_mb_row`` stays the parser of record and
  re-parses any row the kernel hands back, and parses every row when
  the parse kernel cannot be built.

Everything here is bit-exact with the per-macroblock reference functions
in :mod:`repro.codec.motion`, :mod:`repro.codec.quant` and
:mod:`repro.codec.decoder` (enforced by
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

from repro.codec import vlc
from repro.codec.framestore import BORDER
from repro.codec.motion import ZERO_MV_BIAS, MotionVector
from repro.codec.predict import DEFAULT_DC
from repro.codec.quant import (
    DEFAULT_INTER_MATRIX,
    DEFAULT_INTRA_MATRIX,
    METHOD_H263,
    METHOD_MPEG,
    ZIGZAG,
    validate_qp,
)
from repro.codec.types import VopType
from repro.native.build import load_library
from repro.video.yuv import MB_SIZE

_SAD_KERNEL_SOURCE = Path(__file__).with_name("_sad_kernel.c")

_sad_lib = None
_sad_tried = False


def _load_sad_kernel():
    """The compiled plane kernel (the motion search and the texture
    path), or ``None``."""
    global _sad_lib, _sad_tried
    if _sad_tried:
        return _sad_lib
    _sad_tried = True
    lib = load_library(_SAD_KERNEL_SOURCE, "sadsearch")
    if lib is None:
        return None
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        "sad_full_search": ([pointer] * 2 + [count] * 9 + [pointer] * 2, None),
        "predict_mbs": (
            [pointer] + [count] * 3 + [pointer] * 2 + [count] * 5 + [pointer] * 6,
            count,
        ),
        "bidirectional_mbs": ([count] + [pointer] * 8, None),
        "quantize_blocks": ([pointer] + [count] * 3 + [pointer] * 2, None),
        "dequantize_blocks": ([pointer] + [count] * 3 + [pointer] * 2, None),
        "store_macroblocks": (
            [pointer, count, pointer, pointer] + [count] * 3 + [pointer] * 3, None
        ),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    _sad_lib = lib
    return lib


def sad_kernel_available() -> bool:
    """True when the compiled SAD search kernel can be used."""
    return _load_sad_kernel() is not None


#: Why the batched engine cannot run: the plane kernel is its only body.
NO_PLANE_KERNEL = (
    "the batched codec engine needs a C compiler (cc/gcc/clang) to build "
    "its plane kernel; set REPRO_CODEC_ENGINE=reference to use the "
    "per-macroblock engine"
)


def _plane_kernel():
    """The compiled plane kernel; raises when it cannot be loaded."""
    lib = _load_sad_kernel()
    if lib is None:
        raise RuntimeError(NO_PLANE_KERNEL)
    return lib


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
) -> PlaneSearch:
    """Motion search for every macroblock of a plane in one kernel call.

    ``reference`` and ``current`` are full padded planes (border pixels on
    every side); macroblock ``(mr, mc)`` sits at ``(border + 16*mr,
    border + 16*mc)``.  Windows clamp to the plane, so any
    ``search_range`` works.  Per MB the result equals
    :func:`repro.codec.motion.full_search` (``model_work=True``)
    followed, when ``half_pel`` is set, by
    :func:`repro.codec.motion.half_pel_refine`.
    """
    lib = _plane_kernel()
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


#: The error of a prediction whose source leaves its reference plane.
_ESCAPES = "compensation source escapes reference plane"


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
    ``(n, 16, 16)`` uint8 luma predictions (used for B-VOP SAD).  The
    plane kernel's ``predict_mbs`` predicts every macroblock in one call,
    each as the reference encoder's ``_predict_mb`` does
    (:func:`repro.codec.motion.compensate` per block, chroma moving by
    half the luma vector rounded toward zero).  A source outside its
    plane raises ``ValueError``.
    """
    mb_ys = np.ascontiguousarray(mb_ys, dtype=np.int64)
    mb_xs = np.ascontiguousarray(mb_xs, dtype=np.int64)
    mv_dx = np.ascontiguousarray(mv_dx, dtype=np.int64)
    mv_dy = np.ascontiguousarray(mv_dy, dtype=np.int64)
    n = mb_ys.size
    if mb_ys.ndim != 1 or not mb_ys.shape == mb_xs.shape == mv_dx.shape == mv_dy.shape:
        raise ValueError("origins and displacements must be flat, of one length")
    if ref_u.shape != ref_v.shape:
        raise ValueError("the U and V planes of a store have one shape")
    lib = _plane_kernel()
    y, u, v = (np.ascontiguousarray(p, dtype=np.uint8) for p in (ref_y, ref_u, ref_v))
    prediction = np.empty((n, 6, 8, 8), dtype=np.float64)
    luma = np.empty((n, MB_SIZE, MB_SIZE), dtype=np.uint8)
    escaped = lib.predict_mbs(
        y.ctypes.data, y.strides[0], *y.shape,
        u.ctypes.data, v.ctypes.data, u.strides[0], *u.shape,
        border, n, mb_ys.ctypes.data, mb_xs.ctypes.data,
        mv_dx.ctypes.data, mv_dy.ctypes.data,
        prediction.ctypes.data, luma.ctypes.data,
    )
    if escaped >= 0:
        raise ValueError(_ESCAPES)
    return prediction, luma


def bidirectional_predict(
    forward: np.ndarray, backward: np.ndarray, modes: np.ndarray, decide=None
) -> None:
    """B-VOP predictions of n macroblocks, in place in ``forward``.

    ``forward`` and ``backward`` are the ``(n, 6, 8, 8)`` float64
    predictions from the past and the future store, ``modes`` an int64
    ``(n,)`` array of :class:`~repro.codec.motion.PredictionMode` values.
    A backward macroblock takes ``backward``, a bidirectional one the
    rounded average ``(forward + backward + 1) // 2``; a forward one keeps
    ``forward``.  The decoder passes the modes its vectors give.  The
    encoder passes ``decide = (luma_f, luma_b, current, sad_f, sad_b)``
    (the two ``(n, 16, 16)`` uint8 luma predictions, the current luma and
    both int64 search SADs), and the modes are decided first, into
    ``modes``: the first minimum of ``sad_f``, ``sad_b`` and the luma SAD
    of the rounded average, in that order, as the reference encoder's
    ``min()`` picks it.  One call to the plane kernel's
    ``bidirectional_mbs``.
    """
    lib = _plane_kernel()
    n = modes.shape[0]
    if not (
        forward.shape == backward.shape == (n, 6, 8, 8)
        and forward.dtype == backward.dtype == np.float64
        and modes.dtype == np.int64
        and forward.flags.c_contiguous
        and backward.flags.c_contiguous
        and modes.flags.c_contiguous
    ):
        raise ValueError("expected (n, 6, 8, 8) float64 predictions and int64 modes")
    decided = (None,) * 5
    if decide is not None:
        luma_f, luma_b, current = (
            np.ascontiguousarray(a, dtype=np.uint8).reshape(n, MB_SIZE, MB_SIZE)
            for a in decide[:3]
        )
        sad_f, sad_b = (np.ascontiguousarray(a, dtype=np.int64) for a in decide[3:])
        if not sad_f.shape == sad_b.shape == (n,):
            raise ValueError("expected one forward and one backward SAD per macroblock")
        decided = tuple(a.ctypes.data for a in (luma_f, luma_b, current, sad_f, sad_b))
    lib.bidirectional_mbs(
        n, forward.ctypes.data, backward.ctypes.data, *decided, modes.ctypes.data
    )


def _weights(qp: int, intra: bool, method: int):
    """The address of ``method``'s weighting matrix (None for H.263),
    after the checks :func:`repro.codec.quant.quantize_any` makes."""
    if method not in (METHOD_H263, METHOD_MPEG):
        raise ValueError(f"unknown quantization method {method}")
    validate_qp(qp)
    if method == METHOD_H263:
        return None
    return (DEFAULT_INTRA_MATRIX if intra else DEFAULT_INTER_MATRIX).ctypes.data


def quantize_blocks(coefficients: np.ndarray, qp: int, intra: bool, method: int) -> np.ndarray:
    """Quantize ``(..., 8, 8)`` DCT coefficient blocks to int32 levels.

    The plane kernel's ``quantize_blocks``; bit-exact with
    :func:`repro.codec.quant.quantize_any`, its oracle.
    """
    lib = _plane_kernel()
    weights = _weights(qp, intra, method)
    coefficients = np.ascontiguousarray(coefficients, dtype=np.float64)
    if coefficients.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8 blocks, got {coefficients.shape}")
    levels = np.empty(coefficients.shape, dtype=np.int32)
    lib.quantize_blocks(
        coefficients.ctypes.data, coefficients.size // 64, qp, int(intra), weights,
        levels.ctypes.data,
    )
    return levels


def dequantize_blocks(levels: np.ndarray, qp: int, intra: bool, method: int) -> np.ndarray:
    """Reconstruct float64 coefficients from ``(..., 8, 8)`` int32 levels.

    The plane kernel's ``dequantize_blocks``; bit-exact with
    :func:`repro.codec.quant.dequantize_any`, its oracle.
    """
    lib = _plane_kernel()
    weights = _weights(qp, intra, method)
    levels = np.ascontiguousarray(levels, dtype=np.int32)
    if levels.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8 blocks, got {levels.shape}")
    coefficients = np.empty(levels.shape, dtype=np.float64)
    lib.dequantize_blocks(
        levels.ctypes.data, levels.size // 64, qp, int(intra), weights,
        coefficients.ctypes.data,
    )
    return coefficients


def store_macroblocks(store, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Write reconstructed macroblocks into a frame store.

    ``values`` holds n macroblocks as ``(n, 6, 8, 8)`` float64 blocks in
    :func:`predict_many` order; macroblock i lands at macroblock row
    ``rows[i]``, column ``cols[i]`` of the store's interior as
    ``np.clip(np.rint(v), 0, 255)`` (ties to even).  The border samples
    stay untouched.  One call to the plane kernel's ``store_macroblocks``.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = rows.size
    if rows.ndim != 1 or cols.shape != rows.shape or values.shape != (n, 6, 8, 8):
        raise ValueError("expected n macroblock positions and (n, 6, 8, 8) values")
    if n and (
        min(rows.min(), cols.min()) < 0
        or rows.max() >= store.height // MB_SIZE
        or cols.max() >= store.width // MB_SIZE
    ):
        raise ValueError("macroblock position outside the frame store")
    _plane_kernel().store_macroblocks(
        store.y.ctypes.data, store.y.strides[0], store.u.ctypes.data,
        store.v.ctypes.data, store.u.strides[0], BORDER, n, rows.ctypes.data,
        cols.ctypes.data, values.ctypes.data,
    )


def gather_plane_blocks(
    plane: np.ndarray, border: int, rows: int, cols: int, n: int
) -> np.ndarray:
    """The plane interior as a ``(rows, cols, n, n)`` block tensor (copy)."""
    interior = plane[border : border + rows * n, border : border + cols * n]
    return np.ascontiguousarray(
        interior.reshape(rows, n, cols, n).transpose(0, 2, 1, 3)
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
