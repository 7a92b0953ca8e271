"""The C motion-search kernel against its NumPy oracle, field for field.

:func:`repro.codec.batched.search_plane` runs the whole search of a VOP
in C: the zero-seeded full-pel search, its early-termination work model
and the half-pel refinement.  The oracle is the per-macroblock NumPy
pair the reference engine runs, :func:`repro.codec.motion.full_search`
with ``model_work=True`` followed by
:func:`repro.codec.motion.half_pel_refine`.  Every field the trace or the
encoder reads must agree: the full-pel vector, SAD, candidate count, read
counts and window-row coverage, and the half-pel vector, SAD and
evaluated count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.batched import sad_kernel_available, search_plane
from repro.codec.framestore import BORDER
from repro.codec.motion import ZERO_MV_BIAS, full_search, half_pel_refine
from repro.video.yuv import MB_SIZE

pytestmark = pytest.mark.skipif(
    not sad_kernel_available(), reason="no C compiler to build the search kernel"
)


def oracle_search(reference, current, x0, y0, search_range):
    block = current[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
    full = full_search(block, reference, x0, y0, search_range, model_work=True)
    refined = half_pel_refine(block, reference, x0, y0, full.mv, full.sad)
    return full, refined


def assert_matches_oracle(reference, current, border, mb_rows, mb_cols, search_range):
    """Compare every macroblock's kernel search with the oracle's."""
    search = search_plane(
        reference, current, border, mb_rows, mb_cols, search_range, half_pel=True
    )
    results = search.search_results()
    for mr in range(mb_rows):
        for mc in range(mb_cols):
            y0, x0 = border + mr * MB_SIZE, border + mc * MB_SIZE
            full, refined = oracle_search(reference, current, x0, y0, search_range)
            got, evaluated = results[mr][mc]
            where = (mr, mc, search_range)
            assert got.mv == full.mv, where
            assert got.sad == full.sad, where
            assert got.candidates_evaluated == full.candidates_evaluated, where
            assert got.ref_reads == full.ref_reads, where
            assert got.cur_reads == full.cur_reads, where
            np.testing.assert_array_equal(got.row_coverage, full.row_coverage)
            assert (search.dx[mr, mc], search.dy[mr, mc]) == (
                refined.mv.dx, refined.mv.dy,
            ), where
            assert search.sad[mr, mc] == refined.sad, where
            assert evaluated == search.evaluated[mr, mc], where
            assert evaluated == refined.candidates_evaluated, where
    return search


def noisy_shift(plane, rng, noise=6):
    shift = tuple(rng.randint(-4, 5, 2))
    shifted = np.roll(plane, shift, axis=(0, 1)).astype(np.int32)
    shifted += rng.randint(-noise, noise + 1, plane.shape)
    return np.clip(shifted, 0, 255).astype(np.uint8)


def make_planes(kind, seed, height, width):
    rng = np.random.RandomState(seed)
    if kind == "noise":
        reference = rng.randint(0, 256, (height, width)).astype(np.uint8)
        return reference, noisy_shift(reference, rng)
    if kind == "constant":
        # Every candidate SAD ties, so the biased zero vector wins.
        a, b = rng.randint(0, 256, 2)
        return (
            np.full((height, width), a, np.uint8),
            np.full((height, width), b, np.uint8),
        )
    if kind == "periodic":
        # A shifted periodic texture: candidates a whole period apart
        # tie, so the first in row-major order must win.
        py, px = rng.randint(1, 5, 2)
        tile = rng.randint(0, 256, (py, px))
        reference = np.tile(tile, (height // py + 1, width // px + 1))
        reference = reference[:height, :width].astype(np.uint8)
        return reference, np.roll(reference, tuple(rng.randint(-3, 4, 2)), axis=(0, 1))
    # "levels": a few grey levels, so SADs are small and ties common.
    reference = (rng.randint(0, 4, (height, width)) * 3).astype(np.uint8)
    return reference, noisy_shift(reference, rng, noise=1)


class TestKernelMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["noise", "constant", "periodic", "levels"]),
        seed=st.integers(0, 2**31 - 1),
        mb_rows=st.integers(1, 3),
        mb_cols=st.integers(1, 3),
        border=st.sampled_from([0, 5, BORDER]),
        search_range=st.sampled_from([1, 2, 7, 16, 20]),
    )
    def test_random_planes(self, kind, seed, mb_rows, mb_cols, border, search_range):
        height = mb_rows * MB_SIZE + 2 * border
        width = mb_cols * MB_SIZE + 2 * border
        reference, current = make_planes(kind, seed, height, width)
        assert_matches_oracle(reference, current, border, mb_rows, mb_cols, search_range)

    def test_constant_planes_pick_the_zero_vector(self):
        reference, current = make_planes("constant", 3, 80, 80)
        search = assert_matches_oracle(reference, current, BORDER, 3, 3, 16)
        assert not search.full_dx.any() and not search.full_dy.any()

    def test_periodic_ties_pick_the_first_in_scan_order(self):
        reference = np.tile(np.array([[0, 255], [255, 0]], np.uint8), (40, 40))
        current = np.roll(reference, 1, axis=1)
        search = assert_matches_oracle(reference, current, BORDER, 3, 3, 16)
        # Every odd-parity offset matches exactly; the top-left one wins.
        assert (search.full_dy == -16).all() and (search.full_dx == -15).all()

    def test_candidate_before_zero_wins_a_tie_with_the_seed(self):
        """The zero seed must not steal a tie from an earlier candidate."""
        reference = np.zeros((48, 48), np.uint8)
        current = np.zeros((48, 48), np.uint8)
        # The zero block's last row sums to the bias: its biased SAD is 0,
        # equal to every candidate above it.
        reference[BORDER + 15, BORDER : BORDER + 16] = ZERO_MV_BIAS // 16
        reference[BORDER + 15, BORDER] += ZERO_MV_BIAS % 16
        search = assert_matches_oracle(reference, current, BORDER, 1, 1, 4)
        assert (search.full_dx[0, 0], search.full_dy[0, 0]) == (-4, -4)

    @pytest.mark.parametrize("kind", ["noise", "levels"])
    def test_windows_clamped_at_every_edge(self, kind):
        """search_range 20 > BORDER clamps every window of a 3x3 grid;
        the corner MBs clamp at two edges at once."""
        reference, current = make_planes(kind, 11, 80, 80)
        search = assert_matches_oracle(reference, current, BORDER, 3, 3, 20)
        # 37 = the 41 offsets of an axis less the 4 beyond the plane edge.
        edge, corner, centre = 37 * 41, 37 * 37, 41 * 41
        np.testing.assert_array_equal(
            search.candidates,
            [[corner, edge, corner], [edge, centre, edge], [corner, edge, corner]],
        )

    def test_half_pel_candidates_excluded_at_the_plane_edge(self):
        reference, current = make_planes("constant", 5, 32, 32)
        search = assert_matches_oracle(reference, current, 0, 2, 2, 1)
        # Zero wins at every MB of an unpadded plane, so each corner MB
        # loses the five half-pel neighbours beyond its two plane edges.
        np.testing.assert_array_equal(search.evaluated, [[3, 3], [3, 3]])

    def test_search_range_one(self):
        reference, current = make_planes("noise", 7, 80, 96)
        search = assert_matches_oracle(reference, current, BORDER, 3, 4, 1)
        assert (search.candidates == 9).all()


def test_half_pel_off_returns_the_full_pel_winner():
    reference, current = make_planes("noise", 9, 80, 80)
    search = search_plane(reference, current, BORDER, 3, 3, 8, half_pel=False)
    np.testing.assert_array_equal(search.dx, 2 * search.full_dx)
    np.testing.assert_array_equal(search.dy, 2 * search.full_dy)
    np.testing.assert_array_equal(search.sad, search.full_sad)
    assert not search.evaluated.any()


def test_rejects_a_grid_that_does_not_fit_the_plane():
    reference, current = make_planes("noise", 1, 64, 64)
    with pytest.raises(ValueError):
        search_plane(reference, current, BORDER, 4, 2, 8, half_pel=True)
    with pytest.raises(ValueError):
        search_plane(reference, current[:, :48], BORDER, 1, 1, 8, half_pel=True)
