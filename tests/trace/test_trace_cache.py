"""Unit tests for the content-fingerprinted trace cache."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.memsim.events import KIND_READ, KIND_WRITE, AccessBatch
from repro.trace.persistence import (
    RecordedTrace,
    TraceCacheStore,
    digest_streams,
    trace_fingerprint,
)


def make_workload(**overrides):
    from repro.core.study import Workload

    params = dict(name="w", width=96, height=64, n_frames=4)
    params.update(overrides)
    return Workload(**params)


def make_recording():
    batches = [
        AccessBatch(KIND_READ, np.array([1, 2, 3]), np.array([4, 1, 2]), phase="me"),
        AccessBatch(KIND_WRITE, np.array([7]), np.array([2]), alu_ops=9),
    ]
    return RecordedTrace(batches=batches, scale=2.0, footprint_bytes=12345,
                         encoded=[{"stream": b"\x01\x02"}])


class TestFingerprint:
    def test_deterministic(self):
        a = trace_fingerprint(make_workload(), "encode", None)
        b = trace_fingerprint(make_workload(), "encode", None)
        assert a == b

    def test_sensitive_to_workload_fields(self):
        base = trace_fingerprint(make_workload(), "encode", None)
        assert trace_fingerprint(make_workload(width=128), "encode", None) != base
        assert trace_fingerprint(make_workload(n_frames=8), "encode", None) != base
        assert trace_fingerprint(make_workload(qp=12), "encode", None) != base

    def test_sensitive_to_direction_sampling_and_input(self):
        from repro.trace.recorder import BandSampling

        workload = make_workload()
        base = trace_fingerprint(workload, "encode", None)
        assert trace_fingerprint(workload, "decode", None) != base
        assert trace_fingerprint(workload, "encode", BandSampling(0.5)) != base
        assert (
            trace_fingerprint(workload, "encode", BandSampling(0.5))
            != trace_fingerprint(workload, "encode", BandSampling(0.25))
        )
        assert trace_fingerprint(workload, "encode", None, "deadbeef") != base

    def test_sensitive_to_codec_knobs(self, monkeypatch):
        from repro.codec.engine import IDCT_ENV

        monkeypatch.setenv(IDCT_ENV, "float")
        base = trace_fingerprint(make_workload(), "encode", None)
        monkeypatch.setenv(IDCT_ENV, "fixed")
        assert trace_fingerprint(make_workload(), "encode", None) != base

    def test_workload_name_is_not_significant(self):
        """Cells are identified by content, not by display name."""
        assert trace_fingerprint(make_workload(name="a"), "encode", None) == \
            trace_fingerprint(make_workload(name="b"), "encode", None)

    def test_stream_digest(self):
        assert digest_streams([b"x"]) == digest_streams([b"x"])
        assert digest_streams([b"x"]) != digest_streams([b"y"])

    @pytest.mark.parametrize(
        "source", ["memsim/prefetch.py", "memsim/events.py", "codec/encoder.py",
                   "trace/kernels.py", "core/study.py"],
    )
    def test_sources_that_shape_a_recording_are_fingerprinted(self, tmp_path, source):
        """Editing the prefetch model or the event layout re-keys the cache."""
        import repro
        from repro.trace.persistence import _digest_sources

        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        before = _digest_sources(copy)
        with open(copy / source, "a") as handle:
            handle.write("\n# edited\n")
        assert _digest_sources(copy) != before

    def test_unrelated_sources_are_not_fingerprinted(self, tmp_path):
        import repro
        from repro.trace.persistence import _digest_sources

        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        before = _digest_sources(copy)
        with open(copy / "service" / "abr.py", "a") as handle:
            handle.write("\n# edited\n")
        assert _digest_sources(copy) == before


class TestTraceCacheStore:
    def test_roundtrip(self, tmp_path):
        store = TraceCacheStore(tmp_path)
        recorded = make_recording()
        store.store("k1", recorded)
        loaded = store.load("k1")
        assert loaded is not None
        assert loaded.scale == recorded.scale
        assert loaded.footprint_bytes == recorded.footprint_bytes
        assert loaded.encoded == recorded.encoded
        assert len(loaded.batches) == len(recorded.batches)
        for original, restored in zip(recorded.batches, loaded.batches):
            assert restored.kind == original.kind
            assert restored.phase == original.phase
            assert restored.alu_ops == original.alu_ops
            np.testing.assert_array_equal(restored.lines, original.lines)
            np.testing.assert_array_equal(restored.counts, original.counts)

    def test_roundtrip_keeps_first_appearance_phase_order(self, tmp_path):
        """Phases load in the order the trace first used them, not sorted."""
        batches = [
            AccessBatch(KIND_READ, np.array([1, 2]), np.array([1, 1]), phase="vop_decode"),
            AccessBatch(KIND_WRITE, np.array([3]), np.array([2]), phase="other"),
            AccessBatch(KIND_READ, np.array([4]), np.array([2]), phase="vop_decode"),
        ]
        store = TraceCacheStore(tmp_path)
        store.store("k1", RecordedTrace(batches=batches, scale=1.0, footprint_bytes=1,
                                        encoded=[]))
        loaded = store.load("k1")
        assert loaded.batches.phase_names == ["vop_decode", "other"]
        assert [b.phase for b in loaded.batches] == ["vop_decode", "other", "vop_decode"]

    def test_miss_returns_none(self, tmp_path):
        assert TraceCacheStore(tmp_path).load("nothing") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceCacheStore(tmp_path)
        store.store("k1", make_recording())
        (tmp_path / "k1" / "meta.json").write_text("not json {")
        assert store.load("k1") is None

    def test_store_is_idempotent(self, tmp_path):
        store = TraceCacheStore(tmp_path)
        store.store("k1", make_recording())
        store.store("k1", make_recording())  # second store must not clobber
        assert store.load("k1") is not None
        assert len(list(tmp_path.iterdir())) == 1

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert TraceCacheStore.from_env() is None
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        store = TraceCacheStore.from_env()
        assert store is not None and store.root == tmp_path


def test_cache_shared_across_idct_settings_serves_each_its_own_trace(
    tmp_path, monkeypatch
):
    """A fixed-IDCT run after a float run on one cache must miss and
    record its own trace: the batched engine's fixed IDCT changes the
    reconstructions, and with them the traced counters."""
    import dataclasses

    from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV, IDCT_ENV
    from repro.core.study import characterize_encode

    def counters(result):
        return {label: dataclasses.asdict(total)
                for label, total in result.raw_counters.items()}

    workload = make_workload(width=176, height=144, n_frames=6)
    monkeypatch.setenv(ENGINE_ENV, ENGINE_BATCHED)
    monkeypatch.setenv(IDCT_ENV, "fixed")
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    fixed = counters(characterize_encode(workload))

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv(IDCT_ENV, "float")
    floating = counters(characterize_encode(workload))
    assert len(list(tmp_path.iterdir())) == 1
    assert floating != fixed
    monkeypatch.setenv(IDCT_ENV, "fixed")
    assert counters(characterize_encode(workload)) == fixed
    assert len(list(tmp_path.iterdir())) == 2
