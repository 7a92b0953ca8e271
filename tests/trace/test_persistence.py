"""Tests for trace capture, save/load, and replay equivalence."""

import numpy as np
import pytest

from repro.codec import CodecConfig, VopEncoder
from repro.core.machines import SGI_O2
from repro.memsim.events import KIND_READ, KIND_WRITE, AccessBatch, BatchTable
from repro.trace import TraceRecorder
from repro.trace.persistence import TraceCapture, load_trace, replay_trace
from repro.video import SceneSpec, SyntheticScene


def sample_batches():
    return [
        AccessBatch(KIND_READ, np.array([1, 2, 3]), np.array([4, 5, 6]),
                    phase="me", alu_ops=100),
        AccessBatch(KIND_WRITE, np.array([9]), np.array([1]), phase="other"),
        AccessBatch(KIND_READ, np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64), phase="me", alu_ops=7),
    ]


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        capture = TraceCapture()
        for batch in sample_batches():
            capture.process(batch)
        path = tmp_path / "trace.npz"
        capture.save(path)
        loaded = list(load_trace(path))
        originals = sample_batches()
        assert len(loaded) == len(originals)
        for original, restored in zip(originals, loaded):
            assert restored.kind == original.kind
            assert restored.phase == original.phase
            assert restored.alu_ops == original.alu_ops
            assert np.array_equal(restored.lines, original.lines)
            assert np.array_equal(restored.counts, original.counts)

    def test_empty_trace(self, tmp_path):
        capture = TraceCapture()
        path = tmp_path / "empty.npz"
        capture.save(path)
        assert list(load_trace(path)) == []

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path, version=np.int64(99), lines=np.zeros(0), counts=np.zeros(0),
            boundaries=np.zeros(0), kinds=np.zeros(0), phases=np.zeros(0),
            alu=np.zeros(0), phase_names=np.array([], dtype=object),
        )
        with pytest.raises(ValueError):
            list(load_trace(path))

    def test_n_events(self):
        capture = TraceCapture()
        for batch in sample_batches():
            capture.process(batch)
        assert capture.n_events == 4

    def test_table_empties_the_capture(self):
        capture = TraceCapture()
        for batch in sample_batches():
            capture.process(batch)
        table = capture.table()
        assert capture.n_events == 0
        assert len(capture.table()) == 0
        assert len(table) == 3
        assert table.bounds.tolist() == [0, 3, 4, 4]
        assert table.phase_names == ["me", "other"]

    def test_save_keeps_the_batches_and_first_appearance_phases(self, tmp_path):
        capture = TraceCapture()
        for phase in ("vop_decode", "other", "vop_decode"):
            capture.process(
                AccessBatch(KIND_READ, np.array([5, 5, 6]), np.ones(3), phase=phase)
            )
        capture.save(tmp_path / "t.npz")
        assert capture.n_events == 9
        loaded = load_trace(tmp_path / "t.npz")
        assert loaded.phase_names == ["vop_decode", "other"]
        # The stored events are collapsed runs.
        assert [b.lines.tolist() for b in loaded] == [[5, 6]] * 3
        assert [b.counts.tolist() for b in loaded] == [[2, 1]] * 3
        # The capture still holds all three batches, as saved.
        kept = capture.table()
        for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
            assert getattr(kept, name).tolist() == getattr(loaded, name).tolist()
        assert kept.phase_names == loaded.phase_names

    def test_rows_and_single_batches_keep_emit_order(self):
        """A row table and single batches, interleaved, fold as the same
        batches handed over one by one (phases renumbered in order of
        first appearance across both)."""
        singles, mixed = TraceCapture(), TraceCapture()
        row = BatchTable(
            [
                AccessBatch(KIND_WRITE, np.array([7, 7, 8]), np.array([1, 2, 3]), phase="row"),
                AccessBatch(KIND_READ, np.array([9]), np.array([4]), phase="me", alu_ops=5),
            ]
        )
        head, tail = sample_batches()[:2], sample_batches()[2:]
        for batch in head + list(row) + tail:
            singles.process(batch)
        for batch in head:
            mixed.process(batch)
        mixed.replay(row)
        for batch in tail:
            mixed.process(batch)
        assert singles.n_events == mixed.n_events == 7
        want, got = singles.table(), mixed.table()
        for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        assert got.phase_names == want.phase_names == ["me", "other", "row"]

    def test_counts_past_int32_survive(self):
        capture = TraceCapture()
        capture.process(AccessBatch(KIND_READ, np.array([1]), np.array([7])))
        capture.process(AccessBatch(KIND_READ, np.array([2, 3]), np.array([2**40, -(2**33)])))
        assert capture.table().counts.tolist() == [7, 2**40, -(2**33)]


class TestReplayEquivalence:
    def test_replay_matches_live_simulation(self, tmp_path):
        """Capturing then replaying a real encode must produce counter-
        identical results to the live run."""
        scene = SyntheticScene(SceneSpec.default(96, 64))
        frames = [scene.frame(i) for i in range(3)]
        config = CodecConfig(96, 64, qp=8, gop_size=4, m_distance=1)

        live = SGI_O2.build_hierarchy()
        capture = TraceCapture()
        recorder = TraceRecorder([live, capture])
        VopEncoder(config, recorder).encode_sequence(frames)

        path = tmp_path / "encode.npz"
        capture.save(path)
        replayed = SGI_O2.build_hierarchy()
        n = replay_trace(path, [replayed])
        assert n == len(capture.table())
        assert replayed.total.l1_misses == live.total.l1_misses
        assert replayed.total.l2_misses == live.total.l2_misses
        assert replayed.total.graduated_loads == live.total.graduated_loads
        assert replayed.total.clock.total_cycles == pytest.approx(
            live.total.clock.total_cycles
        )

    def test_replay_through_multilevel_engine(self, tmp_path):
        """A captured two-level trace replays through the N-level engine."""
        from repro.core.platforms import ITANIUM

        scene = SyntheticScene(SceneSpec.default(96, 64))
        frames = [scene.frame(i) for i in range(2)]
        capture = TraceCapture()
        recorder = TraceRecorder([capture])
        VopEncoder(
            CodecConfig(96, 64, qp=8, gop_size=2, m_distance=1), recorder
        ).encode_sequence(frames)
        capture.save(tmp_path / "t.npz")
        stack = ITANIUM.build()
        replay_trace(tmp_path / "t.npz", [stack])
        assert stack.counters.accesses > 0
        assert stack.l1_miss_rate() < 0.05
