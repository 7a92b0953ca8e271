"""Perceptual audio codec substrate (the paper's Section 1 audio claim).

The paper does not measure MPEG-4 audio but asserts: "our experience
suggests it will present no problem to cache performance: MP3 audio
applications, GSM long-term frequency vocoders, and similar codes are
cache-friendly, since they also work at the frame level ... and since
filtering and convolution operations have high temporal and spatial data
locality."

This package makes that claim checkable: an MP3-class perceptual codec --
windowed MDCT filterbank, per-band scalefactors, energy-driven bit
allocation, bitstream packing -- plus trace instrumentation, so the same
characterization harness that measures video can measure audio.
"""

from repro.audio.codec import AudioDecoder, AudioEncoder
from repro.audio.mdct import FRAME_SAMPLES, SPECTRAL_BINS
from repro.audio.synthesis import AudioSpec, synthesize_audio

__all__ = [
    "AudioDecoder",
    "AudioEncoder",
    "AudioSpec",
    "FRAME_SAMPLES",
    "SPECTRAL_BINS",
    "synthesize_audio",
]
