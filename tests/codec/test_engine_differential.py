"""Differential gate between the codec's two execution engines.

``REPRO_CODEC_ENGINE=reference`` is the per-macroblock oracle;
``batched`` is the frame-level fast path.  Everything observable must be
identical between them: the bitstream bytes, the reconstructed frames,
the per-VOP statistics, the decoder's output (including tolerant decode
of corrupted streams, where parse errors must fire at the same bit
positions), and the memory-trace counters the study pipeline feeds the
cache simulator.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV, ENGINE_REFERENCE, IDCT_ENV
from repro.video import SceneSpec, SyntheticScene
from repro.video.yuv import YuvFrame

WIDTH, HEIGHT = 96, 64


@contextmanager
def engine(value, idct=None):
    saved = {k: os.environ.get(k) for k in (ENGINE_ENV, IDCT_ENV)}
    os.environ[ENGINE_ENV] = value
    if idct is not None:
        os.environ[IDCT_ENV] = idct
    try:
        yield
    finally:
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous


def scene_frames(n, width=WIDTH, height=HEIGHT):
    scene = SyntheticScene(SceneSpec.default(width, height))
    return [scene.frame(i) for i in range(n)]


def encode_both(config, frames):
    with engine(ENGINE_REFERENCE):
        reference = VopEncoder(config).encode_sequence(frames)
    with engine(ENGINE_BATCHED):
        batched = VopEncoder(config).encode_sequence(frames)
    return reference, batched


def assert_frames_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        if left is None or right is None:
            assert left is None and right is None
            continue
        for plane in ("y", "u", "v"):
            assert np.array_equal(getattr(left, plane), getattr(right, plane))


def assert_stats_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert dataclasses.asdict(left) == dataclasses.asdict(right)


CONFIGS = {
    "i_only": dict(qp=8, gop_size=1, m_distance=1),
    "ip": dict(qp=8, gop_size=4, m_distance=1),
    "ipb": dict(qp=6, gop_size=6, m_distance=3),
    "resync": dict(qp=8, gop_size=4, m_distance=1, resync_markers=True),
    "dp_rvlc": dict(
        qp=8, gop_size=4, m_distance=1, resync_markers=True,
        data_partitioning=True, reversible_vlc=True,
    ),
    "mpeg_quant": dict(qp=6, gop_size=4, m_distance=1, quant_method=1),
    "no_half_pel": dict(qp=8, gop_size=4, m_distance=1, use_half_pel=False),
    "small_range": dict(qp=8, gop_size=4, m_distance=1, search_range=3),
    "ipb_resync": dict(qp=6, gop_size=6, m_distance=3, resync_markers=True),
}


class TestEncoderDifferential:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_bitstream_and_recon_bit_exact(self, name):
        config = CodecConfig(WIDTH, HEIGHT, **CONFIGS[name])
        frames = scene_frames(6 if config.m_distance == 1 else 7)
        reference, batched = encode_both(config, frames)
        assert reference.data == batched.data
        assert_frames_equal(reference.reconstructions, batched.reconstructions)
        assert_stats_equal(reference.stats.vops, batched.stats.vops)

    def test_search_range_beyond_border_falls_back(self):
        """search_range > plane border exceeds the batched kernel's domain;
        the engine must transparently use the per-MB search and still
        produce the identical stream."""
        config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, search_range=24)
        frames = scene_frames(4)
        reference, batched = encode_both(config, frames)
        assert reference.data == batched.data

    def test_rate_control_sequences_match(self):
        config = CodecConfig(
            WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=1, target_bitrate=200_000
        )
        frames = scene_frames(6)
        reference, batched = encode_both(config, frames)
        assert reference.data == batched.data
        assert_stats_equal(reference.stats.vops, batched.stats.vops)


class TestDecoderDifferential:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_decode_bit_exact(self, name):
        config = CodecConfig(WIDTH, HEIGHT, **CONFIGS[name])
        frames = scene_frames(6 if config.m_distance == 1 else 7)
        with engine(ENGINE_BATCHED):
            data = VopEncoder(config).encode_sequence(frames).data
        with engine(ENGINE_REFERENCE):
            reference = VopDecoder().decode_sequence(data)
        with engine(ENGINE_BATCHED):
            batched = VopDecoder().decode_sequence(data)
        assert_frames_equal(reference.frames, batched.frames)
        assert_stats_equal(reference.vop_stats, batched.vop_stats)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_tolerant_decode_of_corrupt_stream_matches(self, seed):
        """Concealment decisions hinge on *where* parsing fails; identical
        outputs mean the batched parser raises at the same points."""
        config = CodecConfig(
            WIDTH, HEIGHT, qp=6, gop_size=6, m_distance=3, resync_markers=True
        )
        with engine(ENGINE_BATCHED):
            data = bytearray(VopEncoder(config).encode_sequence(scene_frames(8)).data)
        rng = np.random.RandomState(seed)
        for pos in rng.randint(len(data) // 4, len(data) - 16, size=14):
            data[pos] ^= 1 << int(rng.randint(8))
        stream = bytes(data)
        with engine(ENGINE_REFERENCE):
            reference = VopDecoder().decode_sequence(stream, tolerate_errors=True)
        with engine(ENGINE_BATCHED):
            batched = VopDecoder().decode_sequence(stream, tolerate_errors=True)
        assert_frames_equal(reference.frames, batched.frames)
        assert_stats_equal(reference.vop_stats, batched.vop_stats)

    def test_vop_abandoned_on_budget_keeps_its_decoded_rows(self):
        """A P-VOP that exhausts its decode budget is dropped, but later
        VOPs still predict from its store, so the rows it did decode must
        land there, as the per-MB oracle writes them."""
        width, height = 64, 48
        config = CodecConfig(
            width, height, qp=8, gop_size=4, m_distance=1, resync_markers=True
        )
        with engine(ENGINE_BATCHED):
            data = VopEncoder(config).encode_sequence(
                scene_frames(4, width, height)
            ).data
        vops = [i for i in range(len(data)) if data.startswith(b"\x00\x00\x01\xb6", i)]
        markers = [
            i for i in range(vops[1], vops[2])
            if data.startswith(b"\x00\x00\x01\xb7", i)
        ]
        # Thirty replayed row-1 packets send the row loop back to row 1
        # until the iteration budget runs out.
        packet = data[markers[0] : markers[1]]
        stream = data[: markers[1]] + packet * 30 + data[markers[1] :]
        with engine(ENGINE_REFERENCE):
            reference = VopDecoder().decode_sequence(stream, tolerate_errors=True)
        with engine(ENGINE_BATCHED):
            batched = VopDecoder().decode_sequence(stream, tolerate_errors=True)
        assert batched.concealed_frames == 1
        assert_frames_equal(reference.frames, batched.frames)
        assert_stats_equal(reference.vop_stats, batched.vop_stats)


def shaped_frames(n, width, height, seed=3):
    """A static scene frame under fresh noise, with one flat block whose
    level flips every frame: P-VOPs code it intra, and at qp 31 without
    half-pel P- and B-VOPs skip much of the rest."""
    base = scene_frames(1, width, height)[0]
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(n):
        y = base.y.astype(np.int16) + rng.integers(-3, 4, base.y.shape)
        x0 = 16 * (index % 3)
        y[16:32, x0 : x0 + 16] = (20, 235)[index % 2]
        frames.append(
            YuvFrame(np.clip(y, 0, 255).astype(np.uint8), base.u.copy(), base.v.copy())
        )
    return frames


#: Traced configurations: ``(width, height, knobs, sampling, frames)``.
#: Widths 96, 112 and 176 put macroblock rows at different plane offsets
#: modulo 32; M runs 1-3, half-pel and resync markers on and off, a
#: search range past the border clamps windows, and qp 2 and 31 with
#: :func:`shaped_frames` give P-VOPs intra and skipped macroblocks and
#: B-VOPs skipped ones.
TRACE_CASES = [
    (96, 64, dict(qp=8, gop_size=4, m_distance=2), None, scene_frames),
    (
        112, 48, dict(qp=2, gop_size=6, m_distance=3, resync_markers=True),
        (0.5, None), shaped_frames,
    ),
    (
        176, 48, dict(qp=31, gop_size=3, m_distance=1, use_half_pel=False),
        (0.5, 3), shaped_frames,
    ),
    (112, 64, dict(qp=31, gop_size=5, m_distance=3, search_range=20), None, scene_frames),
    (
        96, 48,
        dict(qp=31, gop_size=4, m_distance=2, use_half_pel=False, resync_markers=True,
             search_range=18),
        (0.5, 4), shaped_frames,
    ),
]


def assert_same_table(actual, expected):
    for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name), name)
    assert actual.phase_names == expected.phase_names


class TestTraceDifferential:
    """The trace stream feeds the paper's cache model: the batched
    engine's row emitters must record the per-MB engine's table, column
    for column."""

    @staticmethod
    def _recorder(sampling):
        from repro.trace import BandSampling, TraceCapture, TraceRecorder

        capture = TraceCapture()
        policy = None if sampling is None else BandSampling(*sampling)
        return TraceRecorder([capture], policy), capture

    def _traced_encode(self, config, frames, sampling, value):
        recorder, capture = self._recorder(sampling)
        with engine(value):
            encoded = VopEncoder(config, recorder).encode_sequence(frames)
        return encoded, capture.table()

    def _traced_decode(self, data, sampling, value):
        recorder, capture = self._recorder(sampling)
        with engine(value):
            VopDecoder(recorder=recorder).decode_sequence(data)
        return capture.table()

    def test_traced_encode_counters_identical(self):
        """Same bitstream and same recorded table (so every counter) in
        every traced case."""
        for width, height, knobs, sampling, make_frames in TRACE_CASES:
            config = CodecConfig(width, height, **knobs)
            frames = make_frames(6, width, height)
            reference, ref_table = self._traced_encode(config, frames, sampling, ENGINE_REFERENCE)
            batched, bat_table = self._traced_encode(config, frames, sampling, ENGINE_BATCHED)
            assert batched.data == reference.data, (width, knobs)
            assert len(bat_table) > 0
            assert_same_table(bat_table, ref_table)

    def test_traced_decode_counters_identical(self):
        """The batched decoder's kernel rows (row emitter) and hand-backs
        record the reference engine's table in every traced case."""
        for width, height, knobs, sampling, make_frames in TRACE_CASES:
            config = CodecConfig(width, height, **knobs)
            with engine(ENGINE_BATCHED):
                data = VopEncoder(config).encode_sequence(make_frames(6, width, height)).data
            assert_same_table(
                self._traced_decode(data, sampling, ENGINE_BATCHED),
                self._traced_decode(data, sampling, ENGINE_REFERENCE),
            )

    def test_cases_reach_every_macroblock_shape(self):
        """Across the traced cases, P-VOPs code intra and skipped
        macroblocks and B-VOPs skipped ones."""
        from repro.codec.types import VopType

        seen = set()
        for width, height, knobs, _, make_frames in TRACE_CASES:
            config = CodecConfig(width, height, **knobs)
            with engine(ENGINE_BATCHED):
                encoded = VopEncoder(config).encode_sequence(make_frames(6, width, height))
            for stats in encoded.stats.vops:
                if stats.intra_mbs:
                    seen.add((stats.vop_type, "intra"))
                if stats.skipped_mbs:
                    seen.add((stats.vop_type, "skipped"))
                if stats.inter_mbs:
                    seen.add((stats.vop_type, "inter"))
        assert {
            (VopType.P, "intra"), (VopType.P, "skipped"), (VopType.P, "inter"),
            (VopType.B, "skipped"), (VopType.B, "inter"),
        } <= seen


class TestFixedPointIdct:
    def test_closed_loop_is_drift_free(self):
        """Encoder and decoder sharing the fixed-point IDCT reconstruct
        bit-identically -- the property that makes an integer IDCT usable
        on machines with weak floating point."""
        config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2)
        frames = scene_frames(6)
        with engine(ENGINE_BATCHED, idct="fixed"):
            encoded = VopEncoder(config).encode_sequence(frames)
            decoded = VopDecoder().decode_sequence(encoded.data)
        assert_frames_equal(decoded.frames, encoded.reconstructions)

    def test_reference_engine_ignores_fixed_idct(self):
        """The oracle always uses the float IDCT, so a reference-engine
        run is reproducible regardless of the IDCT knob."""
        config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=2, m_distance=1)
        frames = scene_frames(3)
        with engine(ENGINE_REFERENCE, idct="fixed"):
            fixed = VopEncoder(config).encode_sequence(frames)
        with engine(ENGINE_REFERENCE, idct="float"):
            floating = VopEncoder(config).encode_sequence(frames)
        assert fixed.data == floating.data

    def test_engine_knob_rejects_unknown_values(self):
        from repro.codec.engine import codec_engine, codec_idct

        with engine("nonsense"):
            with pytest.raises(ValueError):
                codec_engine()
        with engine(ENGINE_BATCHED, idct="nonsense"):
            with pytest.raises(ValueError):
                codec_idct()
