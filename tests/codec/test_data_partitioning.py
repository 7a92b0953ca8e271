"""Tests for data partitioning and reversible-VLC error resilience.

The MPEG-4 tools under test (paper Section 2.1): each video packet is
split by a motion marker into a motion/DC partition and a texture
partition, so texture damage degrades to motion-compensated concealment
instead of killing the packet; with reversible VLC the damaged texture
tail is additionally salvaged by decoding backward from the next resync
point.
"""

import numpy as np
import pytest

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.codec.bitstream import MOTION_MARKER_STARTCODE
from repro.codec.errors import BitstreamError
from repro.video import SceneSpec, SyntheticScene

WIDTH, HEIGHT = 96, 64
MOTION_MARKER_BYTES = bytes([0, 0, 1, MOTION_MARKER_STARTCODE])


def frames(n=5):
    scene = SyntheticScene(SceneSpec.default(WIDTH, HEIGHT))
    return [scene.frame(i) for i in range(n)]


def encode(n=5, **overrides):
    params = dict(qp=8, gop_size=4, m_distance=1, resync_markers=True,
                  data_partitioning=True, reversible_vlc=True)
    params.update(overrides)
    config = CodecConfig(WIDTH, HEIGHT, **params)
    return VopEncoder(config).encode_sequence(frames(n))


def _zero_after_marker(data: bytes, marker_index: int, offset: int, n: int) -> bytes:
    """Zero ``n`` bytes starting ``offset`` bytes after the chosen marker."""
    markers = [
        i for i in range(len(data) - 3)
        if data[i : i + 4] == MOTION_MARKER_BYTES
    ]
    position = markers[marker_index] + 4 + offset
    corrupted = bytearray(data)
    for k in range(n):
        if position + k < len(corrupted):
            corrupted[position + k] = 0
    return bytes(corrupted)


class TestConfigValidation:
    def test_rvlc_requires_dp(self):
        with pytest.raises(ValueError, match="reversible_vlc"):
            CodecConfig(WIDTH, HEIGHT, resync_markers=True, reversible_vlc=True)

    def test_dp_requires_resync(self):
        with pytest.raises(ValueError, match="resync"):
            CodecConfig(WIDTH, HEIGHT, data_partitioning=True)

    def test_dp_excludes_shape(self):
        with pytest.raises(ValueError, match="arbitrary_shape"):
            CodecConfig(WIDTH, HEIGHT, resync_markers=True,
                        data_partitioning=True, arbitrary_shape=True)


class TestPartitionedSyntax:
    def test_motion_markers_present(self):
        partitioned = encode()
        flat = encode(data_partitioning=False, reversible_vlc=False)
        assert partitioned.data.count(MOTION_MARKER_BYTES) > 0
        assert flat.data.count(MOTION_MARKER_BYTES) == 0

    def test_legacy_streams_unchanged(self):
        """dp/rvlc header bits are gated behind resync_markers, so
        streams without resync markers stay bit-identical to the seed."""
        config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=1)
        one = VopEncoder(config).encode_sequence(frames(3)).data
        two = VopEncoder(config).encode_sequence(frames(3)).data
        assert one == two
        decoded = VopDecoder().decode_sequence(one)
        assert len(decoded.frames) == 3


class TestPartitionedRoundtrip:
    @pytest.mark.parametrize("rvlc", [False, True])
    def test_clean_roundtrip_bit_exact(self, rvlc):
        encoded = encode(reversible_vlc=rvlc)
        decoded = VopDecoder().decode_sequence(encoded.data)
        assert decoded.is_clean
        for recon, out in zip(encoded.reconstructions, decoded.frames):
            assert np.array_equal(recon.y, out.y)
            assert np.array_equal(recon.u, out.u)
            assert np.array_equal(recon.v, out.v)

    def test_roundtrip_with_bvops(self):
        encoded = encode(n=7, gop_size=12, m_distance=3)
        decoded = VopDecoder().decode_sequence(encoded.data)
        assert decoded.is_clean
        for recon, out in zip(encoded.reconstructions, decoded.frames):
            assert np.array_equal(recon.y, out.y)

    def test_traced_intra_texture_counts_partition_events(self, monkeypatch):
        """The trace charges a partitioned intra MB's texture pipeline
        for its coded blocks and their texture-partition events only; the
        DC terms (partition 1) count in the statistics, not in the hook."""
        from repro.core.machines import SGI_O2
        from repro.trace import TraceRecorder, kernels

        hooks = []
        mb_texture = kernels.mb_texture

        def spy(rec, kind, *args, n_coded_blocks, n_events):
            hooks.append((kind, n_coded_blocks, n_events))
            mb_texture(rec, kind, *args, n_coded_blocks=n_coded_blocks,
                       n_events=n_events)

        monkeypatch.setattr(kernels, "mb_texture", spy)
        recorder = TraceRecorder([SGI_O2.build_hierarchy()])
        decoded = VopDecoder(recorder=recorder).decode_sequence(encode(n=1).data)
        (stats,) = decoded.vop_stats
        assert [kind for kind, _, _ in hooks] == ["intra_dec"] * stats.intra_mbs
        assert sum(events for _, _, events in hooks) == (
            stats.coded_coefficients - 6 * stats.intra_mbs
        )
        assert min(blocks for _, blocks, _ in hooks) < 6


class TestTextureDamage:
    def test_texture_loss_falls_back_to_concealment(self):
        encoded = encode()
        concealed_total = 0
        for marker_index in range(4):
            corrupted = _zero_after_marker(encoded.data, marker_index, 6, 4)
            decoded = VopDecoder().decode_sequence(
                corrupted, tolerate_errors=True
            )
            assert len(decoded.frames) == 5
            stats = decoded.vop_stats
            concealed_total += sum(s.texture_concealed_mbs for s in stats)
        assert concealed_total > 0

    def test_rvlc_salvages_tail_blocks(self):
        encoded = encode()
        salvaged_total = 0
        for marker_index in range(6):
            for offset in (4, 6, 8):
                corrupted = _zero_after_marker(
                    encoded.data, marker_index, offset, 3
                )
                decoded = VopDecoder().decode_sequence(
                    corrupted, tolerate_errors=True
                )
                salvaged_total += sum(
                    s.rvlc_salvaged_blocks for s in decoded.vop_stats
                )
        assert salvaged_total > 0

    def test_salvage_never_hurts_quality(self):
        """Paired damage with and without backward salvage: applying
        salvaged blocks must not lower PSNR versus dropping the tail."""
        from repro.video.quality import psnr

        encoded = encode()
        sources = frames(5)
        original_salvage = VopDecoder.__dict__["_rvlc_salvage"].__func__

        def mean_psnr(decoded):
            return sum(
                psnr(src.y, out.y) for src, out in zip(sources, decoded.frames)
            ) / len(sources)

        try:
            for marker_index in range(4):
                corrupted = _zero_after_marker(
                    encoded.data, marker_index, 5, 3
                )
                with_salvage = VopDecoder().decode_sequence(
                    corrupted, tolerate_errors=True
                )
                VopDecoder._rvlc_salvage = staticmethod(lambda d, s, e: [])
                without_salvage = VopDecoder().decode_sequence(
                    corrupted, tolerate_errors=True
                )
                VopDecoder._rvlc_salvage = staticmethod(original_salvage)
                assert mean_psnr(with_salvage) >= mean_psnr(without_salvage) - 0.01
        finally:
            VopDecoder._rvlc_salvage = staticmethod(original_salvage)

    def test_strict_mode_raises_typed_error(self):
        encoded = encode()
        rejected = 0
        for marker_index in range(6):
            corrupted = _zero_after_marker(encoded.data, marker_index, 4, 5)
            try:
                VopDecoder().decode_sequence(corrupted)
            except BitstreamError:
                rejected += 1
            # An untyped exception would propagate and fail the test.
        assert rejected > 0

    def test_motion_marker_damage_conceals_row(self):
        encoded = encode()
        markers = [
            i for i in range(len(encoded.data) - 3)
            if encoded.data[i : i + 4] == MOTION_MARKER_BYTES
        ]
        corrupted = bytearray(encoded.data)
        corrupted[markers[1] + 3] = 0x55  # marker suffix destroyed
        decoded = VopDecoder().decode_sequence(
            bytes(corrupted), tolerate_errors=True
        )
        assert len(decoded.frames) == 5
        assert sum(s.lost_packets for s in decoded.vop_stats) > 0
