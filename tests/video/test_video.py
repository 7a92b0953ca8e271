"""Tests for YUV frames, synthesis, and quality metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (
    SceneSpec,
    SyntheticScene,
    VideoObjectSpec,
    YuvFrame,
    downsample_plane,
    mse,
    psnr,
    upsample_plane,
)
from repro.video.quality import frame_psnr


class TestYuvFrame:
    def test_blank_construction(self):
        frame = YuvFrame.blank(64, 48)
        assert frame.width == 64
        assert frame.height == 48
        assert frame.u.shape == (24, 32)
        assert (frame.y == 128).all()

    def test_mb_geometry(self):
        frame = YuvFrame.blank(96, 64)
        assert frame.mb_cols == 6
        assert frame.mb_rows == 4
        assert frame.n_bytes == 96 * 64 * 3 // 2

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            YuvFrame.blank(60, 48)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            YuvFrame(
                np.zeros((16, 16), dtype=np.float32),
                np.zeros((8, 8), dtype=np.uint8),
                np.zeros((8, 8), dtype=np.uint8),
            )

    def test_rejects_wrong_chroma_shape(self):
        with pytest.raises(ValueError):
            YuvFrame(
                np.zeros((16, 16), dtype=np.uint8),
                np.zeros((16, 16), dtype=np.uint8),
                np.zeros((8, 8), dtype=np.uint8),
            )

    def test_copy_is_independent(self):
        frame = YuvFrame.blank(16, 16)
        duplicate = frame.copy()
        duplicate.y[0, 0] = 7
        assert frame.y[0, 0] == 128

    def test_planes_iteration(self):
        names = [name for name, _ in YuvFrame.blank(16, 16).planes()]
        assert names == ["y", "u", "v"]


class TestResampling:
    def test_downsample_averages(self):
        plane = np.array([[0, 4], [8, 12]], dtype=np.uint8)
        assert downsample_plane(plane)[0, 0] == 6  # (0+4+8+12+2)//4

    def test_downsample_rejects_odd(self):
        with pytest.raises(ValueError):
            downsample_plane(np.zeros((3, 4), dtype=np.uint8))

    def test_upsample_shape_and_content(self):
        plane = np.array([[1, 2]], dtype=np.uint8)
        up = upsample_plane(plane)
        assert up.shape == (2, 4)
        assert up[1, 1] == 1
        assert up[0, 2] == 2

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_down_up_bounded_error(self, seed):
        rng = np.random.default_rng(seed)
        plane = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        smooth = downsample_plane(plane)
        restored = upsample_plane(smooth)
        assert restored.shape == plane.shape


class TestQuality:
    def test_mse_identical_is_zero(self):
        plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert mse(plane, plane) == 0.0

    def test_psnr_identical_is_inf(self):
        plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert math.isinf(psnr(plane, plane))

    def test_psnr_known_value(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.full((8, 8), 16, dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / 256))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 80),
        width=st.integers(1, 96),
        spread=st.sampled_from([1, 16, 256]),
    )
    def test_uint8_mse_equals_the_float64_mean(self, seed, height, width, spread):
        """The exact integer path gives the float the float64 mean gives,
        from identical planes to ones a full 255 apart everywhere."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (height, width)).astype(np.uint8)
        b = np.clip(a.astype(np.int32) + rng.integers(-spread, spread, a.shape), 0, 255)
        b = b.astype(np.uint8)
        diff = a.astype(np.float64) - b.astype(np.float64)
        assert mse(a, b) == float(np.mean(diff * diff))
        full = np.full_like(a, 255)
        assert mse(np.zeros_like(a), full) == 255.0**2

    def test_frame_psnr_uses_luma(self):
        a = YuvFrame.blank(16, 16)
        b = a.copy()
        b.u[:] = 0  # chroma-only difference: luma PSNR unaffected
        assert math.isinf(frame_psnr(a, b))


class TestSynthesis:
    def test_deterministic(self):
        spec = SceneSpec.default(96, 64, n_objects=2)
        a = SyntheticScene(spec).frame(5)
        b = SyntheticScene(spec).frame(5)
        assert np.array_equal(a.y, b.y)

    def test_frames_change_over_time(self):
        scene = SyntheticScene(SceneSpec.default(96, 64, n_objects=1))
        assert not np.array_equal(scene.frame(0).y, scene.frame(5).y)

    def test_object_motion_moves_mask(self):
        scene = SyntheticScene(SceneSpec.default(96, 64, n_objects=1))
        _, masks0 = scene.frame_with_masks(0)
        _, masks8 = scene.frame_with_masks(8)
        center0 = np.argwhere(masks0[0]).mean(axis=0)
        center8 = np.argwhere(masks8[0]).mean(axis=0)
        assert np.linalg.norm(center8 - center0) > 2.0

    def test_mask_count_matches_objects(self):
        scene = SyntheticScene(SceneSpec.default(96, 64, n_objects=3))
        _, masks = scene.frame_with_masks(0)
        assert len(masks) == 3

    def test_object_region_has_object_chroma(self):
        spec = SceneSpec.default(96, 64, n_objects=1)
        scene = SyntheticScene(spec)
        frame, masks = scene.frame_with_masks(0)
        mask_c = masks[0][::2, ::2] != 0
        assert mask_c.any()
        assert np.all(frame.u[mask_c] == spec.objects[0].chroma_u)

    def test_rejects_misaligned_scene(self):
        with pytest.raises(ValueError):
            SceneSpec(width=100, height=64)

    def test_frames_iterator(self):
        scene = SyntheticScene(SceneSpec.default(64, 48))
        frames = list(scene.frames(3))
        assert len(frames) == 3
        assert frames[0].width == 64

    def test_object_path(self):
        obj = VideoObjectSpec(center_x=10, center_y=10, radius_x=5, radius_y=5,
                              velocity_x=2.0, velocity_y=0.0, wobble=0.0)
        assert obj.center_at(5) == (20.0, 10.0)

    def test_texture_is_band_limited(self):
        """Backgrounds should have smooth local structure, not white noise:
        neighbouring pixels correlate."""
        scene = SyntheticScene(SceneSpec.default(128, 64))
        luma = scene.frame(0).y.astype(np.float64)
        horizontal_diff = np.abs(np.diff(luma, axis=1)).mean()
        assert horizontal_diff < 12.0
