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


class TestTraceDifferential:
    """The trace stream feeds the paper's cache model; batching must not
    change a single counter."""

    @staticmethod
    def _snapshot(hierarchy):
        return {
            "total": dataclasses.asdict(hierarchy.total),
            "phases": {
                name: dataclasses.asdict(c) for name, c in hierarchy.phases.items()
            },
        }

    def _traced_encode(self, config, frames, value):
        from repro.core.machines import SGI_O2
        from repro.trace import TraceRecorder

        with engine(value):
            hierarchy = SGI_O2.build_hierarchy()
            encoded = VopEncoder(config, TraceRecorder([hierarchy])).encode_sequence(
                frames
            )
        return encoded, self._snapshot(hierarchy)

    def _traced_decode(self, data, value):
        from repro.core.machines import SGI_O2
        from repro.trace import TraceRecorder

        with engine(value):
            hierarchy = SGI_O2.build_hierarchy()
            VopDecoder(recorder=TraceRecorder([hierarchy])).decode_sequence(data)
        return self._snapshot(hierarchy)

    def test_traced_encode_counters_identical(self):
        config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2)
        frames = scene_frames(5)
        ref_encoded, ref_counts = self._traced_encode(config, frames, ENGINE_REFERENCE)
        bat_encoded, bat_counts = self._traced_encode(config, frames, ENGINE_BATCHED)
        assert ref_encoded.data == bat_encoded.data
        assert ref_counts == bat_counts

    def test_traced_decode_counters_identical(self):
        config = CodecConfig(
            WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2, resync_markers=True
        )
        with engine(ENGINE_BATCHED):
            data = VopEncoder(config).encode_sequence(scene_frames(5)).data
        assert self._traced_decode(data, ENGINE_REFERENCE) == self._traced_decode(
            data, ENGINE_BATCHED
        )


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
