"""Tests for motion estimation and compensation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.motion import (
    MotionVector,
    ZERO_MV,
    bidirectional_prediction,
    block_sad,
    compensate,
    full_search,
    half_pel_refine,
    intra_inter_decision,
    median_mv,
)


def textured_plane(height=64, width=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (height, width)).astype(np.uint8)


class TestMotionVector:
    def test_full_pel_conversion(self):
        assert MotionVector(4, -6).full_pel() == (2, -3)

    def test_chroma_rounds_toward_zero(self):
        assert MotionVector(3, -3).chroma() == MotionVector(1, -1)
        assert MotionVector(4, -4).chroma() == MotionVector(2, -2)

    def test_is_zero(self):
        assert ZERO_MV.is_zero
        assert not MotionVector(1, 0).is_zero


class TestFullSearch:
    def test_finds_exact_translation(self):
        reference = textured_plane()
        dx, dy = 5, -3
        mb_x, mb_y = 24, 24
        current = reference[mb_y + dy : mb_y + dy + 16, mb_x + dx : mb_x + dx + 16]
        result = full_search(current, reference, mb_x, mb_y, search_range=8)
        assert result.mv == MotionVector(2 * dx, 2 * dy)
        assert result.sad == 0

    def test_zero_bias_prefers_stationary(self):
        reference = textured_plane()
        current = reference[24:40, 24:40]
        result = full_search(current, reference, 24, 24, search_range=8)
        assert result.mv.is_zero
        assert result.sad == 0

    def test_window_clamped_at_frame_edge(self):
        reference = textured_plane()
        current = reference[0:16, 0:16]
        result = full_search(current, reference, 0, 0, search_range=16)
        # Window clamps to the top-left corner: (16+1)^2 candidates.
        assert result.candidates_evaluated == 17 * 17
        assert result.mv.is_zero

    def test_full_window_candidate_count(self):
        reference = textured_plane(96, 96)
        current = reference[40:56, 40:56]
        result = full_search(current, reference, 40, 40, search_range=16)
        assert result.candidates_evaluated == 33 * 33

    def test_model_work_keeps_the_winner(self):
        """The work model (read counts for the trace) leaves the vector
        and SAD of the plain search untouched."""
        reference = textured_plane(80, 96, seed=1)
        current = np.roll(reference, (2, -3), axis=(0, 1))
        for y0 in (16, 32, 48):
            for x0 in (16, 40, 64):
                block = current[y0 : y0 + 16, x0 : x0 + 16]
                plain = full_search(block, reference, x0, y0, 8)
                modeled = full_search(block, reference, x0, y0, 8, model_work=True)
                assert modeled.mv == plain.mv
                assert modeled.sad == plain.sad
                assert modeled.ref_reads > 0
                assert modeled.row_coverage.sum() * 16 == modeled.ref_reads

    @given(
        dx=st.integers(min_value=-6, max_value=6),
        dy=st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_recovers_any_translation(self, dx, dy):
        reference = textured_plane(seed=42)
        mb_x = mb_y = 24
        current = reference[mb_y + dy : mb_y + dy + 16, mb_x + dx : mb_x + dx + 16]
        result = full_search(current, reference, mb_x, mb_y, search_range=8)
        assert result.sad == 0
        if (dx, dy) != (0, 0):
            assert result.mv == MotionVector(2 * dx, 2 * dy)


class TestHalfPel:
    def test_refinement_never_worse(self):
        reference = textured_plane(seed=3)
        current = reference[16:32, 16:32]
        full = full_search(current, reference, 18, 18, search_range=8)
        refined = half_pel_refine(current, reference, 18, 18, full.mv, full.sad)
        assert refined.sad <= full.sad

    def test_finds_half_pel_motion(self):
        # Build a current block that is the half-pel interpolation of the
        # reference: refinement must find an odd MV component with SAD 0.
        reference = textured_plane(seed=4)
        mv = MotionVector(1, 0)
        current = compensate(reference, 24, 24, mv, 16)
        full = full_search(current, reference, 24, 24, search_range=4)
        refined = half_pel_refine(current, reference, 24, 24, full.mv, full.sad)
        assert refined.mv == mv
        assert refined.sad == 0


class TestCompensate:
    def test_integer_mv_is_copy(self):
        reference = textured_plane()
        block = compensate(reference, 8, 8, MotionVector(4, -2), 16)
        assert np.array_equal(block, reference[7:23, 10:26])

    def test_half_pel_horizontal_average(self):
        reference = np.zeros((16, 16), dtype=np.uint8)
        reference[0, 0] = 10
        reference[0, 1] = 20
        block = compensate(reference, 0, 0, MotionVector(1, 0), 8)
        assert block[0, 0] == 15  # rounded average

    def test_half_pel_diagonal_average(self):
        reference = np.array([[0, 4], [8, 12]], dtype=np.uint8)
        reference = np.pad(reference, ((0, 8), (0, 8)))
        block = compensate(reference, 0, 0, MotionVector(1, 1), 8)
        assert block[0, 0] == (0 + 4 + 8 + 12 + 2) // 4

    def test_out_of_bounds_rejected(self):
        reference = textured_plane(32, 32)
        with pytest.raises(ValueError):
            compensate(reference, 0, 0, MotionVector(-2, 0), 16)
        with pytest.raises(ValueError):
            compensate(reference, 17 * 2 and 16, 16, MotionVector(1, 1), 16)


class TestBidirectional:
    def test_average(self):
        forward = np.full((4, 4), 10, dtype=np.uint8)
        backward = np.full((4, 4), 21, dtype=np.uint8)
        assert (bidirectional_prediction(forward, backward) == 16).all()  # (31+1)/2

    def test_symmetric(self):
        a = textured_plane(16, 16, seed=5)
        b = textured_plane(16, 16, seed=6)
        assert np.array_equal(
            bidirectional_prediction(a, b), bidirectional_prediction(b, a)
        )


class TestHelpers:
    def test_block_sad(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.full((2, 2), 3, dtype=np.uint8)
        assert block_sad(a, b) == 12

    def test_block_sad_worst_case_does_not_overflow(self):
        """256 * 255 = 65280 exceeds int16; the int32 accumulator must
        hold the worst-case 16x16 SAD exactly."""
        a = np.zeros((16, 16), dtype=np.uint8)
        b = np.full((16, 16), 255, dtype=np.uint8)
        assert block_sad(a, b) == 16 * 16 * 255
        assert block_sad(b, a) == 16 * 16 * 255

    def test_block_sad_margin_beyond_int16(self):
        """Checkerboard extremes: per-row sums (16 * 255 = 4080) fit
        int16 but the block total must not wrap when accumulated."""
        a = np.indices((16, 16)).sum(axis=0) % 2 * 255
        sad = block_sad(a.astype(np.uint8), (255 - a).astype(np.uint8))
        assert sad == 16 * 16 * 255

    def test_median_mv(self):
        result = median_mv(MotionVector(2, 0), MotionVector(-4, 8), MotionVector(0, 2))
        assert result == MotionVector(0, 2)

    def test_intra_decision_flat_block_bad_prediction(self):
        flat = np.full((16, 16), 128, dtype=np.uint8)
        assert intra_inter_decision(flat, inter_sad=50_000)

    def test_inter_decision_good_prediction(self):
        textured = textured_plane(16, 16)
        assert not intra_inter_decision(textured, inter_sad=10)
