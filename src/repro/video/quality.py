"""Objective quality metrics for codec validation."""

from __future__ import annotations

import math

import numpy as np

from repro.video.yuv import YuvFrame


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between two planes.

    Non-empty uint8 planes (what every caller passes) take an exact
    integer path: the int64 sum of squared int32 differences, divided by
    the size.  Every partial sum of the float64 mean is then an integer
    below 2**53, so the result is the same float.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size and a.dtype == b.dtype == np.uint8:
        diff = np.subtract(a, b, dtype=np.int32)
        return int(np.square(diff).sum(dtype=np.int64)) / diff.size
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical planes."""
    error = mse(a, b)
    if error == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / error)


def frame_psnr(a: YuvFrame, b: YuvFrame) -> float:
    """Luma PSNR between two frames (the codec-quality headline number)."""
    return psnr(a.y, b.y)
