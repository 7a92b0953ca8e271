"""Frame-level kernels vs their per-macroblock reference counterparts.

Every kernel in :mod:`repro.codec.batched` has a scalar oracle in
:mod:`repro.codec.motion`; these tests pin the equivalences macroblock
by macroblock -- including the pure-NumPy search fallback, which must
agree with both the C kernel and the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import batched
from repro.codec.batched import (
    _full_search_plane_numpy,
    chroma_mv,
    compensate_many,
    full_search_plane,
    gather_plane_blocks,
    half_pel_refine_plane,
    intra_decisions,
    predict_many,
    sad_kernel_available,
    scatter_plane_blocks,
)
from repro.codec.framestore import BORDER
from repro.codec.motion import (
    MotionVector,
    compensate,
    full_search,
    half_pel_refine,
    intra_inter_decision,
)
from repro.video.yuv import MB_SIZE

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


class TestFullSearchPlane:
    @pytest.mark.parametrize("search_range", [1, 3, 8, 16])
    def test_matches_per_mb_search(self, planes, search_range):
        reference, current = planes
        dx, dy, sad = full_search_plane(
            reference, current, BORDER, MB_ROWS, MB_COLS, search_range
        )
        for mr in range(MB_ROWS):
            for mc in range(MB_COLS):
                y0, x0 = BORDER + mr * MB_SIZE, BORDER + mc * MB_SIZE
                block = current[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
                result = full_search(block, reference, x0, y0, search_range)
                assert result.mv.dx == 2 * dx[mr, mc], (mr, mc)
                assert result.mv.dy == 2 * dy[mr, mc], (mr, mc)
                assert result.sad == sad[mr, mc], (mr, mc)

    def test_numpy_fallback_matches_kernel(self, planes):
        reference, current = planes
        kernel = full_search_plane(reference, current, BORDER, MB_ROWS, MB_COLS, 8)
        fallback = _full_search_plane_numpy(
            reference, current, BORDER, MB_ROWS, MB_COLS, 8
        )
        for a, b in zip(kernel, fallback):
            assert np.array_equal(a, b)

    def test_rejects_range_beyond_border(self, planes):
        reference, current = planes
        with pytest.raises(ValueError):
            full_search_plane(reference, current, BORDER, MB_ROWS, MB_COLS, BORDER + 1)

    def test_model_work_counts_unchanged_by_batching(self, planes):
        """The paper's work model reads come from the scalar search; the
        batched planner must leave them reproducible for the same MVs."""
        reference, current = planes
        dx, dy, sad = full_search_plane(
            reference, current, BORDER, MB_ROWS, MB_COLS, 8
        )
        for mr in range(MB_ROWS):
            for mc in range(MB_COLS):
                y0, x0 = BORDER + mr * MB_SIZE, BORDER + mc * MB_SIZE
                block = current[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
                plain = full_search(block, reference, x0, y0, 8)
                modeled = full_search(block, reference, x0, y0, 8, model_work=True)
                assert modeled.mv == plain.mv
                assert modeled.sad == plain.sad
                assert modeled.ref_reads > 0
                assert modeled.row_coverage.sum() * MB_SIZE == modeled.ref_reads


class TestHalfPelRefinePlane:
    def test_matches_per_mb_refine(self, planes):
        reference, current = planes
        fdx, fdy, fsad = full_search_plane(
            reference, current, BORDER, MB_ROWS, MB_COLS, 8
        )
        dx, dy, sad, evaluated = half_pel_refine_plane(
            reference, current, BORDER, fdx, fdy, fsad
        )
        for mr in range(MB_ROWS):
            for mc in range(MB_COLS):
                y0, x0 = BORDER + mr * MB_SIZE, BORDER + mc * MB_SIZE
                block = current[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
                full_mv = MotionVector(2 * fdx[mr, mc], 2 * fdy[mr, mc])
                result = half_pel_refine(
                    block, reference, x0, y0, full_mv, int(fsad[mr, mc])
                )
                assert result.mv.dx == dx[mr, mc], (mr, mc)
                assert result.mv.dy == dy[mr, mc], (mr, mc)
                assert result.sad == sad[mr, mc], (mr, mc)
                assert result.candidates_evaluated == evaluated[mr, mc], (mr, mc)


class TestCompensateMany:
    def test_matches_scalar_compensate(self, planes):
        reference, _ = planes
        rng = np.random.RandomState(3)
        n = 24
        ys = BORDER + rng.randint(0, MB_ROWS, n) * MB_SIZE
        xs = BORDER + rng.randint(0, MB_COLS, n) * MB_SIZE
        mv_dx = rng.randint(-15, 16, n)
        mv_dy = rng.randint(-15, 16, n)
        batch = compensate_many(reference, ys, xs, mv_dx, mv_dy, MB_SIZE)
        for i in range(n):
            single = compensate(
                reference,
                int(ys[i]),
                int(xs[i]),
                MotionVector(int(mv_dx[i]), int(mv_dy[i])),
                MB_SIZE,
            )
            assert np.array_equal(batch[i], single), i

    def test_raises_when_any_block_escapes(self, planes):
        reference, _ = planes
        ys = np.array([BORDER])
        xs = np.array([BORDER])
        with pytest.raises(ValueError):
            compensate_many(
                reference, ys, xs, np.array([-2 * BORDER - 2]), np.array([0]), MB_SIZE
            )

    def test_chroma_mv_matches_method(self):
        rng = np.random.RandomState(4)
        dx = rng.randint(-32, 33, 50)
        dy = rng.randint(-32, 33, 50)
        cdx, cdy = chroma_mv(dx, dy)
        for i in range(50):
            cmv = MotionVector(int(dx[i]), int(dy[i])).chroma()
            assert (cdx[i], cdy[i]) == (cmv.dx, cmv.dy), i


@pytest.mark.skipif(
    not sad_kernel_available(), reason="no C compiler to build the plane kernel"
)
class TestCompensateKernel:
    """``compensate_blocks`` (the plane kernel) against the NumPy body of
    :func:`compensate_many`, its fallback."""

    @staticmethod
    def numpy_compensate(monkeypatch, *args):
        with monkeypatch.context() as patch:
            patch.setattr(batched, "_load_sad_kernel", lambda: None)
            return compensate_many(*args)

    @pytest.mark.parametrize("size", [MB_SIZE, 8])
    def test_every_phase_and_edge_matches_numpy(self, planes, size, monkeypatch):
        reference, _ = planes
        height, width = reference.shape
        # Every source origin from one corner of the plane to the other,
        # at every half-pel phase, as far as each phase can reach.
        ys, xs, mv_dx, mv_dy = [], [], [], []
        for ry in (0, 1):
            for rx in (0, 1):
                for src_y in (0, 1, height // 2, height - size - ry):
                    for src_x in (0, 3, width // 2, width - size - rx):
                        y0, x0 = BORDER, BORDER + size
                        ys.append(y0)
                        xs.append(x0)
                        mv_dy.append(2 * (src_y - y0) + ry)
                        mv_dx.append(2 * (src_x - x0) + rx)
        args = (reference, ys, xs, mv_dx, mv_dy, size)
        kernel = compensate_many(*args)
        assert kernel.shape == (len(ys), size, size)
        np.testing.assert_array_equal(kernel, self.numpy_compensate(monkeypatch, *args))

    def test_empty_batch(self, planes):
        reference, _ = planes
        empty = np.zeros(0, dtype=np.int64)
        out = compensate_many(reference, empty, empty, empty, empty, 8)
        assert out.shape == (0, 8, 8)

    @pytest.mark.parametrize("mv", [(-2 * BORDER - 1, 0), (0, -2 * BORDER - 1),
                                    (2 * BORDER + 1, 0), (0, 2 * BORDER + 1)])
    def test_escaping_source_raises_as_numpy_does(self, planes, mv, monkeypatch):
        reference, _ = planes
        height, width = reference.shape
        args = (reference, [BORDER, height - BORDER - MB_SIZE],
                [BORDER, width - BORDER - MB_SIZE], [mv[0]] * 2, [mv[1]] * 2, MB_SIZE)
        with pytest.raises(ValueError) as kernel:
            compensate_many(*args)
        with pytest.raises(ValueError) as fallback:
            self.numpy_compensate(monkeypatch, *args)
        assert str(kernel.value) == str(fallback.value)


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


class TestGatherScatter:
    def test_roundtrip_is_identity(self):
        plane = padded_plane(8)
        blocks = gather_plane_blocks(plane, BORDER, MB_ROWS * 2, MB_COLS * 2, 8)
        copy = plane.copy()
        scatter_plane_blocks(copy, blocks, BORDER)
        assert np.array_equal(copy, plane)

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
