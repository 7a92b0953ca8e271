"""The service decode memo and the codec-knob-complete cache keys.

Decode is a pure function of the received bytes and the codec knobs, so
memoizing it must not move a single digest: every session result, ABR
delivery and published table is byte-identical whether each session
decodes cold or reads a warm memo, on every backend and ``--jobs``
count.  Every cache of encoded bytes or decoded frames keys on the codec
knobs, so switching a knob in-process misses instead of returning stale
output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.codec import VopDecoder
from repro.codec.batched import sad_kernel_available
from repro.codec.engine import ENGINE_ENV, IDCT_ENV
from repro.codec.renditions import DEFAULT_LADDER
from repro.ioutil import sha256_hex
from repro.service import session
from repro.service.abrstudy import AbrCell, run_abr_cell
from repro.service.config import DEFAULT_CONFIG, MODE_FULL, ServiceConfig
from repro.service.session import (
    build_fleet,
    decode_received,
    execute_session,
    reset_encode_cache,
)
from repro.service.study import FaultCell, ServeCell, run_cell, run_fault_cell

#: At QCIF the fixed-point IDCT changes the service's bitstreams.
QCIF_CONFIG = ServiceConfig(width=176, height=144)


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(IDCT_ENV, raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    reset_encode_cache()
    yield
    reset_encode_cache()


def received(variant: int, config: ServiceConfig = DEFAULT_CONFIG):
    data = session._encoded_stream(variant, MODE_FULL, config)
    return data, sha256_hex(data)


def comparable(entry: tuple) -> tuple:
    """A decode-memo entry without its frames (outcome, frames digest)."""
    outcome, _, frames_digest = entry
    return outcome, frames_digest


def cache_sizes() -> tuple[int, int, int]:
    return (len(session._ENCODE_CACHE), len(session._LADDER_CACHE),
            len(session._DECODE_MEMO))


class TestCodecKnobKeys:
    def test_idct_switch_misses_every_cache(self, monkeypatch):
        """Switching the IDCT in-process re-encodes and re-decodes; the
        warm results equal a cold process's."""
        stream, digest = received(0, QCIF_CONFIG)
        float_decode = decode_received(stream, digest)
        session._ladder_encodings(0, QCIF_CONFIG, DEFAULT_LADDER)

        monkeypatch.setenv(IDCT_ENV, "fixed")
        before = cache_sizes()
        warm_stream, _ = received(0, QCIF_CONFIG)
        warm_ladder = session._ladder_encodings(0, QCIF_CONFIG, DEFAULT_LADDER)
        warm_decode = decode_received(stream, digest)
        assert cache_sizes() == tuple(size + 1 for size in before)
        assert warm_stream != stream
        assert comparable(warm_decode) != comparable(float_decode)

        reset_encode_cache()
        assert received(0, QCIF_CONFIG)[0] == warm_stream
        cold_ladder = session._ladder_encodings(0, QCIF_CONFIG, DEFAULT_LADDER)
        assert [rung.data for rung in cold_ladder] == \
            [rung.data for rung in warm_ladder]
        assert comparable(decode_received(stream, digest)) == \
            comparable(warm_decode)

    @pytest.mark.skipif(
        not sad_kernel_available(), reason="no C compiler to build the plane kernel"
    )
    def test_engine_switch_misses(self, monkeypatch):
        """The engines conceal corrupt streams differently, so a memo
        filled by one engine must not answer for the other."""
        stream, digest = received(0)
        decode_received(stream, digest)
        monkeypatch.setenv(ENGINE_ENV, "reference")
        before = len(session._DECODE_MEMO)
        outcome, frames, frames_digest = decode_received(stream, digest)
        assert len(session._DECODE_MEMO) == before + 1
        direct = VopDecoder().decode_sequence(stream, tolerate_errors=True)
        assert frames_digest == session._frames_digest(direct.frames)
        assert outcome == "decoded"


class TestMemo:
    def test_hit_returns_the_stored_entry(self):
        stream, digest = received(0)
        first = decode_received(stream, digest)
        assert decode_received(stream, digest) is first
        assert first[0] == "decoded"
        assert first[2] == session._frames_digest(
            VopDecoder().decode_sequence(stream).frames
        )

    def test_memoized_frames_are_read_only(self):
        stream, digest = received(0)
        _, frames, _ = decode_received(stream, digest)
        for plane in (frames[0].y, frames[-1].u, frames[-1].v):
            with pytest.raises(ValueError):
                plane[0, 0] = 0

    def test_rejected_stream_is_memoized(self):
        garbage = b"\x00" * 64
        entry = decode_received(garbage, sha256_hex(garbage))
        assert entry == ("rejected", None, "-")
        assert decode_received(garbage, sha256_hex(garbage)) is entry

    def test_overfilling_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(session, "_DECODE_MEMO_CAPACITY", 2)
        (a, a_digest), (b, b_digest), (c, c_digest) = (
            received(variant) for variant in range(3)
        )
        decode_received(a, a_digest)
        decode_received(b, b_digest)
        decode_received(a, a_digest)  # a is now the most recently used
        decode_received(c, c_digest)
        assert [key[0] for key in session._DECODE_MEMO] == [a_digest, c_digest]


def test_threads_share_the_memo_without_losing_entries_or_bounds(
    monkeypatch,
):
    """The asyncio backend decodes in threads: under forced switching,
    every thread still reads the cold result and the bound holds."""
    monkeypatch.setattr(session, "_DECODE_MEMO_CAPACITY", 3)
    streams = [received(variant)
               for variant in range(DEFAULT_CONFIG.scene_variants)]
    expected = {
        digest: comparable(decode_received(data, digest))
        for data, digest in streams
    }
    reset_encode_cache()

    def worker(offset: int) -> int:
        for step in range(40):
            data, digest = streams[(offset + step) % len(streams)]
            assert comparable(decode_received(data, digest)) == \
                expected[digest]
        return offset

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, offset) for offset in range(8)]
            done = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert done == list(range(8))
    assert 0 < len(session._DECODE_MEMO) <= 3


class TestWarmEqualsCold:
    """Warm memo vs a memo that keeps nothing (every session decodes its
    own stream), at pinned seeds."""

    @staticmethod
    def both(run, monkeypatch):
        first = run()
        warm = run()  # every stream is already memoized
        reset_encode_cache()
        monkeypatch.setattr(session, "_DECODE_MEMO_CAPACITY", 0)
        cold = run()
        assert warm == first
        return warm, cold

    def test_session_results(self, monkeypatch):
        specs = build_fleet(4, 24, DEFAULT_CONFIG)
        warm, cold = self.both(
            lambda: [execute_session(spec, MODE_FULL, DEFAULT_CONFIG)
                     for spec in specs],
            monkeypatch,
        )
        assert warm == cold

    @pytest.mark.parametrize("seed", [4, 5])
    def test_serve_cell(self, seed, monkeypatch):
        warm, cold = self.both(lambda: run_cell(ServeCell(32, seed))[0],
                               monkeypatch)
        assert warm == cold

    def test_faultstudy_cell_with_rejected_and_concealed_streams(
        self, monkeypatch
    ):
        warm, cold = self.both(
            lambda: run_fault_cell(FaultCell(24, 4, 0.6, "full"))[0],
            monkeypatch,
        )
        outcomes = warm["quality"]["decode_outcomes"]
        assert outcomes["rejected"] > 0 and outcomes["concealed"] > 0
        assert warm == cold

    def test_abrstudy_cell(self, monkeypatch):
        warm, cold = self.both(
            lambda: run_abr_cell(AbrCell(24, 4, 16, "step_drop", "hybrid"))[0],
            monkeypatch,
        )
        assert warm == cold


def read_tables(run_dir: Path) -> dict[str, bytes]:
    """Published artifact bytes (telemetry and attempt counters excluded)."""
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.suffix != ".attempt"
        and "telemetry" not in path.relative_to(run_dir).parts
    }


STUDIES = {
    "serve": ("--sessions", "24"),
    "faultstudy": ("--sessions", "24", "--intensity", "0.6",
                   "--policy", "full"),
    "abrstudy": ("--sessions", "24", "--bandwidth", "16",
                 "--profile", "step_drop", "--policy", "hybrid"),
}


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_published_tables_warm_vs_cold_across_backends(
    study, tmp_path, monkeypatch
):
    def publish(run_id: str, backend: str, jobs: int) -> dict[str, bytes]:
        argv = [study, *STUDIES[study], "--seed", "4", "--backend", backend,
                "--jobs", str(jobs), "--verify-complete",
                "--runs-dir", str(tmp_path), "--run-id", run_id]
        with contextlib.redirect_stdout(io.StringIO()):
            assert repro_main(argv) == 0
        return read_tables(tmp_path / run_id)

    warm = [
        publish(f"{backend}-{jobs}-{attempt}", backend, jobs)
        for attempt, (backend, jobs) in enumerate(
            (("serial", 1), ("serial", 1), ("asyncio", 4), ("fleet", 2))
        )
    ]
    with monkeypatch.context() as patch:
        patch.setattr(session, "_DECODE_MEMO_CAPACITY", 0)
        reset_encode_cache()
        cold = publish("cold", "serial", 1)
    assert cold
    for tables in warm:
        assert tables == cold
