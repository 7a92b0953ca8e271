"""Frame-level kernels vs their per-macroblock reference counterparts.

Every routine in :mod:`repro.codec.batched` has a scalar oracle in
:mod:`repro.codec.motion`, :mod:`repro.codec.quant` or the reference
encoder and decoder; these tests pin the equivalences macroblock by
macroblock.  The plane kernel is the only body of the texture path, so
its tests need the kernel (the motion search is held to its oracle in
``test_search_kernel.py``), and a whole encode and decode with the
kernel is held to one on a host without it, where the codec resolves to
its reference engine.
"""

from __future__ import annotations

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import CodecConfig, VopDecoder, VopEncoder, batched
from repro.codec.batched import (
    bidirectional_predict,
    dequantize_blocks,
    gather_plane_blocks,
    intra_decisions,
    predict_many,
    quantize_blocks,
    sad_kernel_available,
    store_macroblocks,
)
from repro.codec.engine import (
    ENGINE_BATCHED,
    ENGINE_ENV,
    ENGINE_REFERENCE,
    IDCT_ENV,
    IDCT_FIXED,
    codec_engine,
)
from repro.codec.framestore import BORDER, FrameStore
from repro.codec.motion import (
    MotionVector,
    PredictionMode,
    compensate,
    intra_inter_decision,
)
from repro.codec.quant import (
    METHOD_H263,
    METHOD_MPEG,
    QP_MAX,
    QP_MIN,
    dequantize_any,
    quantize_any,
)
from repro.video import SceneSpec, SyntheticScene
from repro.video.yuv import MB_SIZE

from .conftest import needs_kernel

MB_ROWS, MB_COLS = 3, 4
HEIGHT, WIDTH = MB_ROWS * MB_SIZE, MB_COLS * MB_SIZE


def padded_plane(seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    plane = rng.randint(0, 256, (HEIGHT + 2 * BORDER, WIDTH + 2 * BORDER), np.int32)
    return plane.astype(np.uint8)


def shifted_plane(base: np.ndarray, seed: int) -> np.ndarray:
    """A noisy shift of ``base`` so searches find non-trivial vectors."""
    rng = np.random.RandomState(seed)
    shifted = np.roll(base, (rng.randint(-4, 5), rng.randint(-4, 5)), axis=(0, 1))
    noise = rng.randint(-6, 7, shifted.shape)
    return np.clip(shifted.astype(np.int32) + noise, 0, 255).astype(np.uint8)


@pytest.fixture(scope="module")
def planes():
    reference = padded_plane(1)
    current = shifted_plane(reference, 2)
    return reference, current


def chroma_planes(seed: int, height: int = HEIGHT, width: int = WIDTH):
    """A U and a V plane for luma planes of the padded test geometry."""
    return tuple(
        padded_plane(seed + k)[: height // 2 + 2 * BORDER, : width // 2 + 2 * BORDER]
        for k in (0, 1)
    )


def reference_predictions(store, mb_ys, mb_xs, mv_dx, mv_dy) -> np.ndarray:
    """The reference engine's six-block prediction of each macroblock:
    ``VopEncoder._predict_mb``, :func:`repro.codec.motion.compensate` per
    block."""
    encoder = VopEncoder(CodecConfig(WIDTH, HEIGHT))
    return np.array([
        encoder._predict_mb(store, int(y), int(x), MotionVector(int(dx), int(dy)))
        for y, x, dx, dy in zip(mb_ys, mb_xs, mv_dx, mv_dy)
    ])


def luma_of(prediction: np.ndarray) -> np.ndarray:
    """The ``(n, 16, 16)`` luma of ``(n, 6, 8, 8)`` predictions."""
    quadrants = prediction[:, :4].reshape(-1, 2, 2, 8, 8)
    return quadrants.transpose(0, 1, 3, 2, 4).reshape(-1, MB_SIZE, MB_SIZE)


@needs_kernel
class TestCompensateKernel:
    """The plane kernel's six-block prediction (``predict_mbs``, one call
    per reference store) against the reference engine's NumPy prediction,
    :func:`reference_predictions`."""

    @pytest.mark.parametrize("size", [MB_SIZE, 8])
    def test_every_phase_and_edge_matches_numpy(self, planes, size):
        reference, _ = planes
        plane_u, plane_v = chroma_planes(6)
        mb_ys, mb_xs, mv_dx, mv_dy = [], [], [], []
        if size == MB_SIZE:
            # Every luma source origin from one corner of the plane to the
            # other, at every half-pel phase, as far as each phase reaches.
            height, width = reference.shape
            for ry in (0, 1):
                for rx in (0, 1):
                    for src_y in (0, 1, height // 2, height - size - ry):
                        for src_x in (0, 3, width // 2, width - size - rx):
                            mb_y, mb_x = 0, MB_SIZE
                            mb_ys.append(mb_y)
                            mb_xs.append(mb_x)
                            mv_dy.append(2 * (src_y - BORDER - mb_y) + ry)
                            mv_dx.append(2 * (src_x - BORDER - mb_x) + rx)
        else:
            # Every vector of the border's reach at the corner macroblocks:
            # every chroma phase, odd negative vectors (chroma rounds them
            # toward zero) and the chroma sources nearest each plane edge.
            reach = range(-2 * BORDER, 2 * BORDER + 1)
            for mb_y, mb_x in ((0, 0), (HEIGHT - MB_SIZE, WIDTH - MB_SIZE)):
                for dy in reach:
                    for dx in reach:
                        mb_ys.append(mb_y)
                        mb_xs.append(mb_x)
                        mv_dy.append(dy)
                        mv_dx.append(dx)
        prediction, luma = predict_many(
            reference, plane_u, plane_v, mb_ys, mb_xs, mv_dx, mv_dy, BORDER
        )
        assert prediction.shape == (len(mb_ys), 6, 8, 8)
        assert luma.shape == (len(mb_ys), MB_SIZE, MB_SIZE)
        store = SimpleNamespace(y=reference, u=plane_u, v=plane_v)
        expected = reference_predictions(store, mb_ys, mb_xs, mv_dx, mv_dy)
        np.testing.assert_array_equal(prediction, expected)
        np.testing.assert_array_equal(luma, luma_of(expected))

    def test_empty_batch(self, planes):
        reference, _ = planes
        empty = np.zeros(0, dtype=np.int64)
        prediction, luma = predict_many(
            reference, *chroma_planes(6), empty, empty, empty, empty, BORDER
        )
        assert prediction.shape == (0, 6, 8, 8)
        assert luma.shape == (0, MB_SIZE, MB_SIZE)

    @staticmethod
    def assert_both_raise(reference, plane_u, plane_v, mb_ys, mb_xs, mv_dx, mv_dy):
        with pytest.raises(ValueError):
            predict_many(reference, plane_u, plane_v, mb_ys, mb_xs, mv_dx, mv_dy, BORDER)
        store = SimpleNamespace(y=reference, u=plane_u, v=plane_v)
        with pytest.raises(ValueError):
            reference_predictions(store, mb_ys, mb_xs, mv_dx, mv_dy)

    @pytest.mark.parametrize("mv", [(-2 * BORDER - 1, 0), (0, -2 * BORDER - 1),
                                    (2 * BORDER + 1, 0), (0, 2 * BORDER + 1)])
    def test_escaping_source_raises_as_numpy_does(self, planes, mv):
        reference, _ = planes
        self.assert_both_raise(reference, *chroma_planes(6), [0, HEIGHT - MB_SIZE],
                               [0, WIDTH - MB_SIZE], [mv[0]] * 2, [mv[1]] * 2)

    def test_escaping_chroma_source_raises_as_numpy_does(self, planes):
        """Chroma planes without a full border: a vector whose luma source
        stays inside can still take chroma outside, and both sides reject
        it."""
        reference, _ = planes
        plane_u, plane_v = (p[: HEIGHT // 2 + BORDER, : WIDTH // 2 + BORDER]
                            for p in chroma_planes(6))
        # The luma source of the bottom-left macroblock moved 4 rows down
        # stays inside its plane.
        compensate(reference, BORDER + HEIGHT - MB_SIZE, BORDER, MotionVector(0, 8), MB_SIZE)
        self.assert_both_raise(reference, plane_u, plane_v, [HEIGHT - MB_SIZE], [0], [0], [8])


@needs_kernel
class TestPredictMany:
    def test_six_block_layout_matches_scalar(self, planes):
        reference, _ = planes
        rng = np.random.RandomState(5)
        plane_u = padded_plane(6)[: HEIGHT // 2 + 2 * BORDER, : WIDTH // 2 + 2 * BORDER]
        plane_v = padded_plane(7)[: HEIGHT // 2 + 2 * BORDER, : WIDTH // 2 + 2 * BORDER]
        n = 12
        mb_ys = rng.randint(0, MB_ROWS, n) * MB_SIZE
        mb_xs = rng.randint(0, MB_COLS, n) * MB_SIZE
        mv_dx = rng.randint(-10, 11, n)
        mv_dy = rng.randint(-10, 11, n)
        prediction, luma = predict_many(
            reference, plane_u, plane_v, mb_ys, mb_xs, mv_dx, mv_dy, BORDER
        )
        for i in range(n):
            mv = MotionVector(int(mv_dx[i]), int(mv_dy[i]))
            y_full = compensate(
                reference, BORDER + int(mb_ys[i]), BORDER + int(mb_xs[i]), mv, MB_SIZE
            )
            cmv = mv.chroma()
            cy = BORDER + int(mb_ys[i]) // 2
            cx = BORDER + int(mb_xs[i]) // 2
            u = compensate(plane_u, cy, cx, cmv, 8)
            v = compensate(plane_v, cy, cx, cmv, 8)
            assert np.array_equal(prediction[i, 0], y_full[:8, :8]), i
            assert np.array_equal(prediction[i, 1], y_full[:8, 8:]), i
            assert np.array_equal(prediction[i, 2], y_full[8:, :8]), i
            assert np.array_equal(prediction[i, 3], y_full[8:, 8:]), i
            assert np.array_equal(prediction[i, 4], u), i
            assert np.array_equal(prediction[i, 5], v), i
            assert np.array_equal(
                luma[i], np.clip(np.rint(y_full), 0, 255).astype(np.uint8)
            ), i


def random_store(seed: int) -> FrameStore:
    rng = np.random.default_rng(seed)
    store = FrameStore(WIDTH, HEIGHT)
    for plane in (store.y, store.u, store.v):
        plane[:] = rng.integers(0, 256, plane.shape)
    return store


def store_tensor(store: FrameStore) -> np.ndarray:
    """Every macroblock of a store as (n, 6, 8, 8) float64, in the
    encoder's block order."""
    y16 = gather_plane_blocks(store.y, BORDER, MB_ROWS, MB_COLS, MB_SIZE)
    quadrants = y16.reshape(MB_ROWS, MB_COLS, 2, 8, 2, 8).transpose(0, 1, 2, 4, 3, 5)
    blocks = np.empty((MB_ROWS, MB_COLS, 6, 8, 8))
    blocks[:, :, :4] = quadrants.reshape(MB_ROWS, MB_COLS, 4, 8, 8)
    blocks[:, :, 4] = gather_plane_blocks(store.u, BORDER, MB_ROWS, MB_COLS, 8)
    blocks[:, :, 5] = gather_plane_blocks(store.v, BORDER, MB_ROWS, MB_COLS, 8)
    return blocks.reshape(-1, 6, 8, 8)


EVERY_ROW = np.repeat(np.arange(MB_ROWS), MB_COLS)
EVERY_COL = np.tile(np.arange(MB_COLS), MB_ROWS)


class TestGatherScatter:
    @needs_kernel
    def test_roundtrip_is_identity(self):
        """Gathering every macroblock and storing it back is the identity."""
        store = random_store(8)
        copy = random_store(8)
        store_macroblocks(copy, EVERY_ROW, EVERY_COL, store_tensor(store))
        for plane in ("y", "u", "v"):
            assert np.array_equal(getattr(copy, plane), getattr(store, plane))

    def test_gather_addresses_interior(self):
        plane = padded_plane(9)
        blocks = gather_plane_blocks(plane, BORDER, MB_ROWS, MB_COLS, MB_SIZE)
        assert np.array_equal(
            blocks[1, 2],
            plane[
                BORDER + MB_SIZE : BORDER + 2 * MB_SIZE,
                BORDER + 2 * MB_SIZE : BORDER + 3 * MB_SIZE,
            ],
        )


class TestIntraDecisions:
    def test_matches_scalar_decision(self, planes):
        _, current = planes
        rng = np.random.RandomState(10)
        cur_blocks = gather_plane_blocks(
            current, BORDER, MB_ROWS, MB_COLS, MB_SIZE
        )
        # Mix tiny and huge SADs so both branches of the decision fire.
        sads = rng.randint(0, 6000, (MB_ROWS, MB_COLS)).astype(np.int64)
        batched = intra_decisions(cur_blocks, sads)
        for mr in range(MB_ROWS):
            for mc in range(MB_COLS):
                scalar = intra_inter_decision(cur_blocks[mr, mc], int(sads[mr, mc]))
                assert batched[mr, mc] == scalar, (mr, mc)


# -- the texture path: bidirectional mix, quantization, store -----------------


def bidirectional_case(seed: int, n: int = 40):
    """Predictions and search SADs of n B-VOP macroblocks."""
    rng = np.random.default_rng(seed)
    luma_f, luma_b, current = (
        rng.integers(0, 256, (n, MB_SIZE, MB_SIZE)).astype(np.uint8) for _ in range(3)
    )
    forward, backward = (rng.integers(0, 256, (n, 6, 8, 8)).astype(np.float64) for _ in range(2))
    sads = rng.integers(15000, 25000, (2, n)).astype(np.int64)
    return luma_f, luma_b, current, forward, backward, sads


def reference_mode(sad_f: int, sad_b: int, sad_bi: int) -> int:
    """The reference encoder's ``min()`` over the three modes."""
    return min(
        (sad_f, PredictionMode.FORWARD),
        (sad_b, PredictionMode.BACKWARD),
        (sad_bi, PredictionMode.BIDIRECTIONAL),
        key=lambda item: item[0],
    )[1].value


def reference_mix(forward, backward, modes) -> np.ndarray:
    """The reference engine's prediction of each B-VOP macroblock."""
    expected = forward.copy()
    for i, mode in enumerate(modes):
        if mode == PredictionMode.BACKWARD.value:
            expected[i] = backward[i]
        elif mode == PredictionMode.BIDIRECTIONAL.value:
            expected[i] = (forward[i] + backward[i] + 1.0) // 2
    return expected


@needs_kernel
class TestBidirectionalPredict:
    def test_encoder_decision_matches_reference_min(self):
        luma_f, luma_b, current, forward, backward, (sad_f, sad_b) = bidirectional_case(1)
        average = (luma_f.astype(np.int64) + luma_b + 1) >> 1
        sad_bi = np.abs(current - average).sum(axis=(1, 2))
        # Ties: forward first, then backward.
        sad_f[:4], sad_b[:4] = sad_bi[:4], sad_bi[:4]
        sad_f[4:8], sad_b[4:8] = sad_bi[4:8] + 1, sad_bi[4:8]
        sad_f[8:12], sad_b[8:12] = sad_bi[8:12] - 1, sad_bi[8:12] - 1
        sad_f[12:16], sad_b[12:16] = sad_bi[12:16] + 1, sad_bi[12:16] + 1
        expected_modes = [reference_mode(*sads) for sads in zip(sad_f, sad_b, sad_bi)]
        expected = reference_mix(forward, backward, expected_modes)
        modes = np.empty(len(sad_f), dtype=np.int64)
        bidirectional_predict(
            forward, backward, modes, decide=(luma_f, luma_b, current, sad_f, sad_b)
        )
        assert modes.tolist() == expected_modes
        assert set(expected_modes[:16]) == {0, 1, 2}
        np.testing.assert_array_equal(forward, expected)

    def test_decoder_modes_match_numpy(self):
        """The modes a decoder's vectors give mix as the reference
        decoder's NumPy does, macroblock by macroblock."""
        _, _, _, forward, backward, _ = bidirectional_case(2)
        modes = np.arange(len(forward), dtype=np.int64) % 3
        expected = reference_mix(forward, backward, modes)
        bidirectional_predict(forward, backward, modes)
        np.testing.assert_array_equal(forward, expected)


def coefficient_blocks(qp: int):
    """Coefficients at the quantizer's edges: exact multiples of qp and
    2qp, dead-zone edges, DC terms at k + 0.5 of the DC scaler, signed
    zeros and the +-2040 extremes of 8-bit residuals."""
    values = st.one_of(
        st.integers(-2040 // qp, 2040 // qp).map(lambda k: float(k * qp)),
        st.integers(-1020 // qp, 1020 // qp).map(lambda k: float(2 * k * qp)),
        st.integers(-1020 // qp, 1020 // qp).map(lambda k: (2 * k + 0.5) * qp),
        st.integers(-255, 255).map(lambda k: 8 * (k + 0.5)),
        st.sampled_from([0.0, -0.0, 2040.0, -2040.0]),
        st.floats(-2040, 2040, allow_nan=False),
    )
    return st.lists(values, min_size=64, max_size=64 * 6)


def level_blocks():
    values = st.one_of(
        st.integers(-2048, 2048),
        st.sampled_from([0, 1, -1, 2**31 - 1, -(2**31)]),
    )
    return st.lists(values, min_size=64, max_size=64 * 6)


def blocks_of(values, dtype):
    usable = len(values) // 64 * 64
    return np.array(values[:usable], dtype=dtype).reshape(-1, 8, 8)


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


@needs_kernel
class TestQuantizationKernel:
    """``quantize_blocks`` / ``dequantize_blocks`` against ``quant.py``."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        qp=st.integers(QP_MIN, QP_MAX),
        intra=st.booleans(),
        method=st.sampled_from([METHOD_H263, METHOD_MPEG]),
    )
    @example(data=None, qp=10, intra=True, method=METHOD_H263)
    def test_quantize_matches_quant_py(self, data, qp, intra, method):
        if data is None:  # the DC ties 2.5 and 3.5, and both zeros
            values = [8 * 2.5, 8 * 3.5, -8 * 2.5, -0.0] + [0.0] * 60
        else:
            values = data.draw(coefficient_blocks(qp))
        coefficients = blocks_of(values, np.float64)
        levels = quantize_blocks(coefficients, qp, intra, method)
        expected = quantize_any(coefficients, qp, intra, method)
        assert levels.dtype == np.int32
        np.testing.assert_array_equal(levels, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        values=level_blocks(),
        qp=st.integers(QP_MIN, QP_MAX),
        intra=st.booleans(),
        method=st.sampled_from([METHOD_H263, METHOD_MPEG]),
    )
    def test_dequantize_matches_quant_py_bit_for_bit(self, values, qp, intra, method):
        levels = blocks_of(values, np.int32)
        coefficients = dequantize_blocks(levels, qp, intra, method)
        expected = dequantize_any(levels, qp, intra, method)
        assert coefficients.dtype == np.float64
        np.testing.assert_array_equal(bits(coefficients), bits(expected))

    def test_leading_shape_is_kept(self):
        coefficients = np.linspace(-900, 900, 3 * 2 * 6 * 64).reshape(3, 2, 6, 8, 8)
        levels = quantize_blocks(coefficients, 7, False, METHOD_MPEG)
        assert levels.shape == coefficients.shape
        np.testing.assert_array_equal(levels, quantize_any(coefficients, 7, False, METHOD_MPEG))

    @pytest.mark.parametrize("qp, method", [(0, METHOD_H263), (32, METHOD_MPEG), (5, 3)])
    def test_rejects_what_quant_py_rejects(self, qp, method):
        block = np.zeros((1, 8, 8))
        for call in (quantize_blocks, quantize_any):
            with pytest.raises(ValueError):
                call(block, qp, True, method)
        for call in (dequantize_blocks, dequantize_any):
            with pytest.raises(ValueError):
                call(block.astype(np.int32), qp, True, method)


class TestStoreMacroblocks:
    @staticmethod
    def values(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        values = rng.uniform(-40, 300, (n, 6, 8, 8))
        ties = np.array([2.5, 3.5, -0.5, 0.5, 1.5, 254.5, 255.5, -1e-9, 255.0, 0.0])
        values.reshape(-1)[: ties.size * 7 : 7] = ties
        return values

    @needs_kernel
    def test_rounds_half_to_even_and_clips(self):
        store = random_store(11)
        before = {plane: getattr(store, plane).copy() for plane in "yuv"}
        # The last row and column, and one inside; the rest keep their samples.
        rows = np.array([MB_ROWS - 1, 0, 1, MB_ROWS - 1])
        cols = np.array([MB_COLS - 1, MB_COLS - 1, 1, 0])
        values = self.values(12, rows.size)
        store_macroblocks(store, rows, cols, values)
        expected = random_store(11)
        pixels = np.clip(np.rint(values), 0, 255).astype(np.uint8)
        for k, (row, col) in enumerate(zip(rows, cols)):
            y0, x0 = BORDER + MB_SIZE * row, BORDER + MB_SIZE * col
            for index, (by, bx) in enumerate(((0, 0), (0, 8), (8, 0), (8, 8))):
                expected.y[y0 + by : y0 + by + 8, x0 + bx : x0 + bx + 8] = pixels[k, index]
            cy0, cx0 = BORDER + 8 * row, BORDER + 8 * col
            expected.u[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[k, 4]
            expected.v[cy0 : cy0 + 8, cx0 : cx0 + 8] = pixels[k, 5]
        for plane in "yuv":
            assert np.array_equal(getattr(store, plane), getattr(expected, plane)), plane
        assert (pixels.reshape(-1)[: 70 : 7] == [2, 4, 0, 0, 2, 254, 255, 0, 255, 0]).all()
        # Borders stay as they were.
        for plane in "yuv":
            now, was = getattr(store, plane), before[plane]
            for edge in (np.s_[:BORDER], np.s_[-BORDER:]):
                assert np.array_equal(now[edge], was[edge])
                assert np.array_equal(now[:, edge], was[:, edge])

    @pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (MB_ROWS, 0), (0, MB_COLS)])
    def test_rejects_positions_outside_the_store(self, row, col):
        with pytest.raises(ValueError):
            store_macroblocks(random_store(1), [row], [col], np.zeros((1, 6, 8, 8)))


# -- end to end: a host with the plane kernel against one without -------------

E2E_CONFIGS = {
    "ipb_h263_resync": dict(qp=6, gop_size=6, m_distance=3, resync_markers=True),
    "ipb_mpeg": dict(qp=9, gop_size=6, m_distance=3, quant_method=METHOD_MPEG),
    "ip_mpeg_resync": dict(qp=4, gop_size=4, m_distance=1, quant_method=METHOD_MPEG,
                           resync_markers=True),
    "i_only": dict(qp=12, gop_size=1, m_distance=1),
}


def codec_run(config: CodecConfig, frames):
    encoded = VopEncoder(config).encode_sequence(frames)
    decoded = VopDecoder().decode_sequence(encoded.data)
    return encoded, decoded


@needs_kernel
class TestPlaneKernelEndToEnd:
    """With no engine set, an encode and decode with the plane kernel (the
    batched engine) equal one where the kernel cannot load, which falls
    back to the reference engine."""

    @pytest.mark.parametrize("idct", ["float", IDCT_FIXED])
    @pytest.mark.parametrize("name", sorted(E2E_CONFIGS))
    def test_kernel_and_fallback_codecs_agree(self, name, idct, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        monkeypatch.setenv(IDCT_ENV, idct)
        width, height = 64, 48
        scene = SyntheticScene(SceneSpec.default(width, height))
        frames = [scene.frame(i) for i in range(7)]
        config = CodecConfig(width, height, **E2E_CONFIGS[name])
        assert codec_engine() == ENGINE_BATCHED
        kernel = codec_run(config, frames)
        with monkeypatch.context() as patch:
            patch.setattr(batched, "_sad_lib", None)
            patch.setattr(batched, "_sad_tried", True)
            assert not sad_kernel_available()
            with pytest.warns(RuntimeWarning, match="reference codec engine"):
                assert codec_engine() == ENGINE_REFERENCE
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fallback = codec_run(config, frames)
        (enc, dec), (enc_np, dec_np) = kernel, fallback
        assert enc.data == enc_np.data
        for left, right in ((enc.reconstructions, enc_np.reconstructions),
                            (dec.frames, dec_np.frames), (dec.frames, enc.reconstructions)):
            assert len(left) == len(right)
            for a, b in zip(left, right):
                for plane in "yuv":
                    assert np.array_equal(getattr(a, plane), getattr(b, plane))
        assert [dataclasses.asdict(v) for v in enc.stats.vops] == [
            dataclasses.asdict(v) for v in enc_np.stats.vops
        ]
        assert [dataclasses.asdict(v) for v in dec.vop_stats] == [
            dataclasses.asdict(v) for v in dec_np.vop_stats
        ]
