"""Study-layer tests: cells, sweeps, resume, CLI acceptance.

The acceptance contract of ``python -m repro serve``: the published
study artifacts are a pure function of ``(--sessions, --seed)`` -- byte
for byte identical across repeat runs, ``--jobs`` counts, backends, and
a chaos-killed run finished with ``--resume`` (the kill-and-resume
drill is ``tests/core/runner/test_sweep.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.service.cli import serve_main
from repro.service.config import DEFAULT_CONFIG
from repro.service.study import (
    DEFAULT_NS,
    FULL_NS,
    SMOKE_NS,
    ServeCell,
    run_cell,
    run_sweep,
    summarize,
)


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


class TestRunCell:
    def test_deterministic_record(self):
        cell = ServeCell(16, 4)
        record_a, _ = run_cell(cell)
        record_b, _ = run_cell(cell)
        assert record_a == record_b

    def test_record_accounting(self):
        record, wall = run_cell(ServeCell(32, 4))
        outcomes = record["outcomes"]
        assert outcomes["offered"] == 32
        assert (
            outcomes["served"] + outcomes["degraded"] + outcomes["shed"]
            == outcomes["offered"]
        )
        assert sum(outcomes["shed_reasons"].values()) == outcomes["shed"]
        admitted = outcomes["served"] + outcomes["degraded"]
        assert record["latency_vms"]["observations"] == admitted
        assert record["latency_vms"]["p50"] <= record["latency_vms"]["p95"]
        assert record["latency_vms"]["p95"] <= record["latency_vms"]["p99"]
        assert record["quality"]["mean_psnr_db"] > 20.0
        assert sum(record["quality"]["decode_outcomes"].values()) == admitted
        assert record["burstiness"]["peak_to_mean"] >= 1.0
        assert len(record["fleet_digest"]) == 64
        assert wall["cell_id"] == record["cell_id"] == "n32+s4"

    def test_small_cells_embed_per_session_table(self):
        record, _ = run_cell(ServeCell(10, 4))
        sessions = record["sessions"]
        assert [s["session_id"] for s in sessions] == list(range(10))
        for session in sessions:
            if session["outcome"] == "shed":
                assert session["shed_reason"] is not None
            else:
                latency = session["latency_vms"]
                assert latency["total"] == pytest.approx(
                    latency["wait"] + latency["encode"]
                    + latency["transport"] + latency["decode"],
                    abs=1e-3,
                )

    def test_large_cells_omit_per_session_table(self):
        record, _ = run_cell(ServeCell(65, 4))
        assert "sessions" not in record

    @pytest.mark.slow
    def test_full_scale_cell_shows_saturation(self):
        """The 10k point: heavy shedding across all three rungs, with
        tail latency pushed toward the deadline."""
        record, _ = run_cell(ServeCell(10_000, 4))
        outcomes = record["outcomes"]
        assert outcomes["shed"] > outcomes["served"] + outcomes["degraded"]
        assert all(v > 0 for v in outcomes["shed_reasons"].values())
        assert record["latency_vms"]["p99"] >= record["latency_vms"]["p50"]
        assert record["latency_vms"]["p99"] <= DEFAULT_CONFIG.deadline_vms + 100


class TestRunSweep:
    NS = (10,)
    SEEDS = (4,)

    def sweep(self, run_dir, **kw):
        return run_sweep(run_dir, ns=self.NS, seeds=self.SEEDS, **kw)

    def test_repeat_runs_byte_identical(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "a")
        self.sweep(tmp_path / "b")
        assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")

    def test_jobs_and_backend_invariance(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "serial", backend="serial", jobs=1)
        self.sweep(tmp_path / "async1", backend="asyncio", jobs=1)
        self.sweep(tmp_path / "async4", backend="asyncio", jobs=4)
        reference = read_artifacts(tmp_path / "serial")
        assert read_artifacts(tmp_path / "async1") == reference
        assert read_artifacts(tmp_path / "async4") == reference

    def test_resume_reuses_published_cells(self, tmp_path, read_artifacts):
        first = self.sweep(tmp_path / "run")
        assert first["skipped_cells"] == 0
        before = read_artifacts(tmp_path / "run")
        resumed = self.sweep(tmp_path / "run", resume=True)
        assert resumed["skipped_cells"] == len(self.NS) * len(self.SEEDS)
        assert read_artifacts(tmp_path / "run") == before

    def test_corrupt_cell_recomputed_on_resume(self, tmp_path):
        self.sweep(tmp_path / "run")
        victim = tmp_path / "run" / "cells" / "n10+s4.json"
        reference = victim.read_bytes()
        victim.write_bytes(reference[: len(reference) // 2])
        resumed = self.sweep(tmp_path / "run", resume=True)
        assert resumed["skipped_cells"] == 0
        assert victim.read_bytes() == reference

    def test_summary_names_missing_cells(self, tmp_path):
        self.sweep(tmp_path / "run")
        summary = summarize(tmp_path / "run", ns=(10, 20), seeds=(4,))
        assert summary["missing_cells"] == ["n20+s4"]
        assert [row["n_sessions"] for row in summary["rows"]] == [10]

    def test_wall_telemetry_stays_out_of_the_record(self, tmp_path):
        self.sweep(tmp_path / "run")
        cell = json.loads(
            (tmp_path / "run" / "cells" / "n10+s4.json").read_text()
        )
        assert "wall_s" not in json.dumps(cell)
        wall = json.loads(
            (tmp_path / "run" / "telemetry" / "wall.json").read_text()
        )
        assert wall["schema"] == "repro-service-wall"
        assert wall["cells"][0]["cell_id"] == "n10+s4"


class TestServeCli:
    def run(self, tmp_path, *args):
        return serve_main(
            ["--runs-dir", str(tmp_path), "--backend", "serial", *args]
        )

    def test_acceptance_32_sessions_twice_identical(self, tmp_path, capsys, read_artifacts):
        """ISSUE acceptance: serve --sessions 32 --seed 4, twice, byte-
        identical tables; and --jobs 1 vs --jobs 4 agree."""
        assert self.run(tmp_path, "--sessions", "32", "--seed", "4",
                        "--run-id", "a") == 0
        assert self.run(tmp_path, "--sessions", "32", "--seed", "4",
                        "--run-id", "b") == 0
        assert serve_main(
            ["--runs-dir", str(tmp_path), "--sessions", "32", "--seed", "4",
             "--backend", "asyncio", "--jobs", "4", "--run-id", "c"]
        ) == 0
        a = read_artifacts(tmp_path / "a")
        assert read_artifacts(tmp_path / "b") == a
        assert read_artifacts(tmp_path / "c") == a
        output = capsys.readouterr().out
        assert "sessions" in output and "PSNR" in output

    def test_verify_complete_passes_on_full_grid(self, tmp_path, capsys):
        assert self.run(tmp_path, "--sessions", "16", "--run-id", "ok",
                        "--verify-complete") == 0
        assert "verify-complete passed" in capsys.readouterr().out

    def test_resume_reuses_cells(self, tmp_path, capsys):
        assert self.run(tmp_path, "--sessions", "16", "--run-id", "again") == 0
        assert self.run(tmp_path, "--sessions", "16", "--resume", "again") == 0
        assert "1 reused" in capsys.readouterr().out

    def test_bad_arguments_exit_2(self, tmp_path):
        assert self.run(tmp_path, "--jobs", "0") == 2
        assert self.run(tmp_path, "--sessions", "-3") == 2

    def test_grid_constants(self):
        assert DEFAULT_NS == (10, 100, 1000)
        assert FULL_NS == DEFAULT_NS + (10_000,)
        assert SMOKE_NS == (32,)
