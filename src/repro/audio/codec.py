"""MP3-class perceptual audio codec.

Frame pipeline, per 576-sample hop:

1. MDCT filterbank (:mod:`repro.audio.mdct`);
2. spectral coefficients grouped into 32 scalefactor bands of 18 bins;
3. per-band scalefactor (shared exponent) from the band peak;
4. energy-proportional bit allocation across bands under a per-frame bit
   budget (a simple stand-in for the psychoacoustic model -- louder bands
   get finer mantissas);
5. uniform mantissa quantization and bitstream packing.

The decoder reverses the pipeline and overlap-adds the inverse MDCT.
Like the video codec, every kernel call site carries an optional trace
hook so the characterization harness can measure audio the way the paper
measured video (and verify its Section 1 cache-friendliness claim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.audio.mdct import FRAME_SAMPLES, SPECTRAL_BINS, analyze, synthesize
from repro.codec.bitstream import BitReader, BitWriter

#: Scalefactor bands per frame.
N_BANDS = 32
#: Spectral bins per band.
BAND_BINS = SPECTRAL_BINS // N_BANDS
#: Bits per scalefactor (exponent, biased).
SCALEFACTOR_BITS = 6
#: Bits per band allocation field.
ALLOC_BITS = 4
#: Largest mantissa width the allocator may assign.
MAX_MANTISSA_BITS = 15


@dataclass
class EncodedAudio:
    """Encoded audio stream plus bookkeeping."""

    data: bytes
    n_samples: int
    sample_rate: int
    n_frames: int

    @property
    def bitrate(self) -> float:
        seconds = self.n_samples / self.sample_rate
        return len(self.data) * 8 / seconds if seconds else 0.0


def _allocate_bits(band_energy: np.ndarray, budget_bits: int) -> np.ndarray:
    """Greedy water-filling: one mantissa bit to the neediest band at a time.

    'Need' is the band's log-energy minus the SNR already purchased
    (~6 dB per bit) -- the classic bit-allocation loop of MPEG audio.
    """
    allocation = np.zeros(N_BANDS, dtype=np.int64)
    with np.errstate(divide="ignore"):
        need = 10.0 * np.log10(np.maximum(band_energy, 1e-12))
    budget = budget_bits // BAND_BINS  # bits are spent per whole band
    for _ in range(budget):
        band = int(np.argmax(need - 6.02 * allocation))
        if need[band] - 6.02 * allocation[band] < -60.0:
            break
        if allocation[band] >= MAX_MANTISSA_BITS:
            need[band] = -np.inf
            continue
        allocation[band] += 1
    return allocation


class AudioEncoder:
    """Perceptual encoder targeting ``bits_per_frame`` of mantissa budget."""

    def __init__(self, bits_per_frame: int = 2400, recorder=None) -> None:
        if bits_per_frame <= 0:
            raise ValueError("bits_per_frame must be positive")
        self.bits_per_frame = bits_per_frame
        self._rec = recorder
        self._regions = None
        if recorder is not None:
            self._regions = {
                "pcm": recorder.map_linear("audio.pcm", 4 << 20),
                "spectra": recorder.map_linear("audio.spectra", 1 << 20),
                "stream": recorder.map_linear("audio.bitstream", 1 << 20),
                "tables": recorder.map_linear("audio.tables", 64 << 10),
            }

    def encode(self, samples: np.ndarray, sample_rate: int = 44_100) -> EncodedAudio:
        samples = np.asarray(samples, dtype=np.float64)
        spectra = analyze(samples)
        writer = BitWriter()
        writer.write_ue(len(samples))
        writer.write_ue(sample_rate)
        writer.write_ue(spectra.shape[0])
        for frame_index in range(spectra.shape[0]):
            self._encode_frame(writer, spectra[frame_index])
            if self._rec is not None:
                self._emit_frame_trace(writer)
        return EncodedAudio(
            data=writer.getvalue(),
            n_samples=len(samples),
            sample_rate=sample_rate,
            n_frames=spectra.shape[0],
        )

    def _encode_frame(self, writer: BitWriter, spectrum: np.ndarray) -> None:
        bands = spectrum.reshape(N_BANDS, BAND_BINS)
        energy = (bands**2).mean(axis=1)
        allocation = _allocate_bits(energy, self.bits_per_frame)
        peaks = np.abs(bands).max(axis=1)
        # Scalefactor: power-of-two exponent covering the band peak.
        exponents = np.zeros(N_BANDS, dtype=np.int64)
        nonzero = peaks > 0
        exponents[nonzero] = np.ceil(np.log2(peaks[nonzero])).astype(np.int64)
        exponents = np.clip(exponents + 32, 0, (1 << SCALEFACTOR_BITS) - 1)
        for band in range(N_BANDS):
            writer.write_bits(int(allocation[band]), ALLOC_BITS)
            if allocation[band] == 0:
                continue
            writer.write_bits(int(exponents[band]), SCALEFACTOR_BITS)
            scale = 2.0 ** float(exponents[band] - 32)
            bits = int(allocation[band])
            levels = 1 << bits
            normalized = np.clip(bands[band] / scale, -1.0, 1.0)
            quantized = np.clip(
                np.rint((normalized + 1.0) / 2.0 * (levels - 1)), 0, levels - 1
            ).astype(np.int64)
            for value in quantized:
                writer.write_bits(int(value), bits)

    def _emit_frame_trace(self, writer: BitWriter) -> None:
        """Access pattern of one frame: FFT-style MDCT + band loops.

        Working set: 1152 input samples (9 KB), ~10 KB of butterfly
        scratch, 4 KB twiddle/window tables, band arrays -- all
        L1-resident, touched many times: the locality the paper ascribes
        to frame-based audio codecs.
        """
        rec = self._rec
        tk = rec.kernels
        regions = self._regions
        n = 2 * FRAME_SAMPLES
        log_n = int(math.log2(n)) + 1
        tk.stream_read(rec, regions["pcm"], FRAME_SAMPLES * 2)
        lines, counts = tk._sequential_lines(regions["spectra"].base, n * 8)
        # log2(n) butterfly passes read+write the scratch each pass.
        rec.emit_read(lines, tk._scaled_counts(lines, counts, n * log_n * 2))
        rec.emit_write(lines, tk._scaled_counts(lines, counts, n * log_n))
        t_lines, t_counts = tk._sequential_lines(regions["tables"].base, 4096)
        rec.emit_read(t_lines, tk._scaled_counts(t_lines, t_counts, n * log_n))
        rec.emit_alu(n * log_n * 6 + SPECTRAL_BINS * 12)
        tk.stream_write(rec, regions["stream"], self.bits_per_frame // 8)


class AudioDecoder:
    """Inverse of :class:`AudioEncoder`."""

    def __init__(self, recorder=None) -> None:
        self._rec = recorder
        self._regions = None
        if recorder is not None:
            self._regions = {
                "pcm": recorder.map_linear("audio.dec.pcm", 4 << 20),
                "spectra": recorder.map_linear("audio.dec.spectra", 1 << 20),
                "stream": recorder.map_linear("audio.dec.bitstream", 1 << 20),
                "tables": recorder.map_linear("audio.dec.tables", 64 << 10),
            }

    def decode(self, encoded: EncodedAudio) -> np.ndarray:
        reader = BitReader(encoded.data)
        n_samples = reader.read_ue()
        reader.read_ue()  # sample rate (carried for players)
        n_frames = reader.read_ue()
        spectra = np.zeros((n_frames, SPECTRAL_BINS))
        for frame_index in range(n_frames):
            spectra[frame_index] = self._decode_frame(reader)
            if self._rec is not None:
                self._emit_frame_trace()
        return synthesize(spectra, n_samples)

    def _decode_frame(self, reader: BitReader) -> np.ndarray:
        bands = np.zeros((N_BANDS, BAND_BINS))
        for band in range(N_BANDS):
            bits = reader.read_bits(ALLOC_BITS)
            if bits == 0:
                continue
            exponent = reader.read_bits(SCALEFACTOR_BITS)
            scale = 2.0 ** float(exponent - 32)
            levels = 1 << bits
            quantized = np.array(
                [reader.read_bits(bits) for _ in range(BAND_BINS)], dtype=np.float64
            )
            bands[band] = (quantized / (levels - 1) * 2.0 - 1.0) * scale
        return bands.reshape(SPECTRAL_BINS)

    def _emit_frame_trace(self) -> None:
        rec = self._rec
        tk = rec.kernels
        regions = self._regions
        n = 2 * FRAME_SAMPLES
        log_n = int(math.log2(n)) + 1
        tk.stream_read(rec, regions["stream"], 300)
        lines, counts = tk._sequential_lines(regions["spectra"].base, n * 8)
        rec.emit_read(lines, tk._scaled_counts(lines, counts, n * log_n * 2))
        rec.emit_write(lines, tk._scaled_counts(lines, counts, n * log_n))
        t_lines, t_counts = tk._sequential_lines(regions["tables"].base, 4096)
        rec.emit_read(t_lines, tk._scaled_counts(t_lines, t_counts, n * log_n))
        rec.emit_alu(n * log_n * 6 + SPECTRAL_BINS * 10)
        tk.stream_write(rec, regions["pcm"], FRAME_SAMPLES * 2)
