"""Crash-safety of telemetry artifacts: SIGKILL mid-export, never torn.

All exporters publish through ``repro.ioutil.atomic_write`` (tmp file +
fsync + rename), so a process killed at any instant leaves either the
previous complete artifact or the new complete artifact -- never a
prefix.  The regression test here hammers a real exporter loop with
SIGKILL and validates whatever survived.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.obs import recording
from repro.obs.export import export_spans_jsonl, read_spans_jsonl
from repro.obs.schema import validate_file


def _sample_records(n_spans: int = 200):
    with recording() as session:
        for index in range(n_spans):
            with session.tracer.span(f"stage.{index % 7}", {"i": index}):
                pass
        return session.tracer.records()


def _export_forever(path_str: str, ready) -> None:
    """Child body: re-export the same trace as fast as possible."""
    records = _sample_records()
    generation = 0
    while True:
        export_spans_jsonl(
            path_str, records, {"generation": generation}
        )
        generation += 1
        ready.value = generation


class TestSigkillMidExport:
    def test_killed_exporter_never_publishes_a_torn_file(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        for round_index in range(5):
            ready = context.Value("i", 0)
            child = context.Process(
                target=_export_forever, args=(str(target), ready), daemon=True
            )
            child.start()
            deadline = time.monotonic() + 30.0
            while ready.value < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ready.value >= 1, "exporter never completed a write"
            # Kill at a slightly different point in the loop each round.
            time.sleep(0.002 * (round_index + 1))
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
            assert child.exitcode == -signal.SIGKILL

            # Whatever made it to disk must be a complete, valid trace.
            assert target.exists()
            assert validate_file(target) == []
            meta, records = read_spans_jsonl(target)
            assert len(records) == 200
            assert meta["generation"] >= 0

    def test_no_temp_files_survive_the_kill(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ready = context.Value("i", 0)
        child = context.Process(
            target=_export_forever, args=(str(target), ready), daemon=True
        )
        child.start()
        while ready.value < 2:
            time.sleep(0.001)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10.0)
        stray = [
            p.name for p in tmp_path.iterdir() if p.name != "trace.jsonl"
        ]
        # At most one orphaned tmp file from the in-flight write; it must
        # not shadow or corrupt the published artifact.
        assert len(stray) <= 1
        assert validate_file(target) == []


class TestArtifactWritersAreAtomic:
    def test_bench_json_uses_atomic_write(self, tmp_path, monkeypatch):
        """`repro bench codec --json` goes through ioutil.atomic_write."""
        calls = []
        import repro.codec.bench as bench
        from repro.codec.batched import sad_kernel_available

        if not sad_kernel_available():
            pytest.skip("no C compiler to build the plane kernel")
        from repro import ioutil

        def spy(path, data, **kwargs):
            calls.append(Path(path))
            return original(path, data, **kwargs)

        original = ioutil.atomic_write
        monkeypatch.setattr(ioutil, "atomic_write", spy)
        out = tmp_path / "bench.json"
        rc = bench.bench_main(
            ["codec", "--frames", "2", "--width", "64", "--height", "64",
             "--repeats", "1", "--json", str(out)]
        )
        assert rc == 0
        assert out in calls
        json.loads(out.read_text())  # complete, parseable artifact
