"""Fault-study acceptance: cells, sweeps, backends, CLI.

The acceptance contract of ``python -m repro faultstudy``: published
tables are byte-identical across repeat runs, backends, ``--jobs``
counts, ``--resume``, and a chaos kill-and-resume drill (in
``tests/core/runner/test_sweep.py``) -- and with the
fault plane disabled, the data plane's results are byte-identical to
the plain (pre-fault-plane) ``repro serve`` path.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import validate_faultstudy, validate_file
from repro.service.cli import faultstudy_main
from repro.service.config import DEFAULT_CONFIG
from repro.service.faults import FaultConfig, FaultPlan
from repro.service.recovery import POLICIES, POLICY_LADDER, simulate_recovery
from repro.service.scheduler import schedule_fleet
from repro.service.study import (
    DEFAULT_INTENSITIES,
    FAULT_DEFAULT_N,
    FAULT_SMOKE_N,
    SMOKE_INTENSITIES,
    FaultCell,
    run_fault_cell,
    run_fault_sweep,
    summarize_faults,
)
from repro.service.backends import execute_schedule
from repro.service.session import build_fleet

@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


class TestRunFaultCell:
    def test_deterministic_record(self):
        cell = FaultCell(16, 4, 0.6, "full")
        record_a, _ = run_fault_cell(cell)
        record_b, _ = run_fault_cell(cell)
        assert record_a == record_b

    def test_record_accounting(self):
        record, wall = run_fault_cell(FaultCell(24, 4, 0.6, "retry"))
        outcomes = record["outcomes"]
        assert outcomes["offered"] == 24
        delivered = (
            outcomes["served"] + outcomes["served_retry"]
            + outcomes["degraded"]
        )
        assert (
            delivered + outcomes["shed"] + outcomes["quarantined"]
            == outcomes["offered"]
        )
        assert sum(outcomes["quarantine_reasons"].values()) == outcomes[
            "quarantined"
        ]
        recovery = record["recovery"]
        assert recovery["availability"] == pytest.approx(
            delivered / outcomes["offered"]
        )
        assert recovery["retry_amplification"] >= 1.0
        assert record["latency_vms"]["observations"] == delivered
        assert sum(record["quality"]["decode_outcomes"].values()) == delivered
        assert len(record["fleet_digest"]) == 64
        assert wall["cell_id"] == record["cell_id"] == "n24+s4+i60+retry"
        assert wall["recovery_wall_s"] >= 0.0

    def test_zero_intensity_matches_plain_serve_results(self):
        """ISSUE acceptance: faults disabled => the data plane's results
        are byte-identical to the pre-fault-plane execution path."""
        config = DEFAULT_CONFIG
        specs = build_fleet(4, 16, config)
        schedule = schedule_fleet(specs, config)
        plain = execute_schedule(specs, schedule, config)
        plan = FaultPlan(4, FaultConfig(intensity=0.0))
        report = simulate_recovery(
            specs, schedule, plan, POLICIES["full"], config
        )
        gated = execute_schedule(specs, schedule, config, recovery=report)
        assert gated == plain

    def test_policy_ladder_differentiates(self):
        availability = {}
        for policy in ("none", "retry"):
            record, _ = run_fault_cell(FaultCell(24, 4, 0.6, policy))
            availability[policy] = record["recovery"]["availability"]
        assert availability["retry"] > availability["none"]

    def test_small_cells_embed_per_session_table(self):
        record, _ = run_fault_cell(FaultCell(16, 4, 0.6, "retry"))
        sessions = record["sessions"]
        assert len(sessions) == 16
        for session in sessions:
            if session["outcome"] == "served_retry":
                assert session["attempts"] > 1
            if session["outcome"] == "quarantined":
                assert session["quarantine_reason"] is not None

    def test_large_cells_omit_per_session_table(self):
        record, _ = run_fault_cell(FaultCell(65, 4, 0.0, "none"))
        assert "sessions" not in record

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError):
            FaultCell(16, 4, 0.6, "nope")
        with pytest.raises(ValueError):
            FaultCell(16, 4, 1.5, "none")


class TestRunFaultSweep:
    NS = (12,)
    SEEDS = (4,)
    INTENSITIES = (0.0, 0.6)
    POLICIES = ("none", "full")

    def sweep(self, run_dir, **kw):
        return run_fault_sweep(
            run_dir, ns=self.NS, seeds=self.SEEDS,
            intensities=self.INTENSITIES, policies=self.POLICIES, **kw
        )

    def test_repeat_runs_byte_identical(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "a")
        self.sweep(tmp_path / "b")
        assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")

    def test_jobs_and_backend_invariance(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "serial", backend="serial", jobs=1)
        self.sweep(tmp_path / "async4", backend="asyncio", jobs=4)
        assert read_artifacts(tmp_path / "async4") == read_artifacts(
            tmp_path / "serial"
        )

    def test_resume_reuses_published_cells(self, tmp_path, read_artifacts):
        first = self.sweep(tmp_path / "run")
        assert first["skipped_cells"] == 0
        before = read_artifacts(tmp_path / "run")
        resumed = self.sweep(tmp_path / "run", resume=True)
        assert resumed["skipped_cells"] == 4
        assert read_artifacts(tmp_path / "run") == before

    def test_corrupt_cell_recomputed_on_resume(self, tmp_path):
        self.sweep(tmp_path / "run")
        victim = tmp_path / "run" / "cells" / "n12+s4+i60+full.json"
        reference = victim.read_bytes()
        victim.write_bytes(reference[: len(reference) // 2])
        resumed = self.sweep(tmp_path / "run", resume=True)
        assert resumed["skipped_cells"] == 3
        assert victim.read_bytes() == reference

    def test_summary_validates_against_schema(self, tmp_path):
        self.sweep(tmp_path / "run")
        summary_path = tmp_path / "run" / "summary.json"
        assert validate_file(summary_path) == []
        summary = json.loads(summary_path.read_text())
        assert summary["schema"] == "repro-faultstudy"
        broken = json.loads(summary_path.read_text())
        broken["rows"][0]["outcomes"]["served"] += 1
        assert any(
            "conservation" in problem
            for problem in validate_faultstudy(broken)
        )

    def test_summary_names_missing_cells(self, tmp_path):
        self.sweep(tmp_path / "run")
        summary = summarize_faults(
            tmp_path / "run", ns=self.NS, seeds=self.SEEDS,
            intensities=(0.0, 0.6, 0.9), policies=self.POLICIES,
        )
        assert summary["missing_cells"] == [
            "n12+s4+i90+full", "n12+s4+i90+none"
        ]

    def test_recovery_wall_stays_out_of_the_record(self, tmp_path):
        self.sweep(tmp_path / "run")
        cell = json.loads(
            (tmp_path / "run" / "cells" / "n12+s4+i60+full.json").read_text()
        )
        assert "recovery_wall_s" not in json.dumps(cell)
        wall = json.loads(
            (tmp_path / "run" / "telemetry" / "wall.json").read_text()
        )
        assert validate_file(
            tmp_path / "run" / "telemetry" / "wall.json"
        ) == []
        assert all("recovery_wall_s" in c for c in wall["cells"])


class TestFaultstudyCli:
    def run(self, tmp_path, *args):
        return faultstudy_main(
            ["--runs-dir", str(tmp_path), "--backend", "serial",
             "--sessions", "12", "--intensity", "0", "0.6",
             "--policy", "none", "retry", *args]
        )

    def test_acceptance_twice_identical_and_jobs_invariant(
        self, tmp_path, capsys, read_artifacts
    ):
        assert self.run(tmp_path, "--run-id", "a") == 0
        assert self.run(tmp_path, "--run-id", "b") == 0
        assert faultstudy_main(
            ["--runs-dir", str(tmp_path), "--sessions", "12",
             "--intensity", "0", "0.6", "--policy", "none", "retry",
             "--backend", "asyncio", "--jobs", "4", "--run-id", "c"]
        ) == 0
        a = read_artifacts(tmp_path / "a")
        assert read_artifacts(tmp_path / "b") == a
        assert read_artifacts(tmp_path / "c") == a
        output = capsys.readouterr().out
        assert "avail" in output and "MTTR" in output

    def test_verify_complete_passes_on_full_grid(self, tmp_path, capsys):
        assert self.run(tmp_path, "--run-id", "ok", "--verify-complete") == 0
        assert "verify-complete passed" in capsys.readouterr().out

    def test_resume_reuses_cells(self, tmp_path, capsys):
        assert self.run(tmp_path, "--run-id", "again") == 0
        assert self.run(tmp_path, "--resume", "again") == 0
        assert "4 reused" in capsys.readouterr().out

    def test_bad_arguments_exit_2(self, tmp_path):
        assert faultstudy_main(
            ["--runs-dir", str(tmp_path), "--jobs", "0"]
        ) == 2
        assert faultstudy_main(
            ["--runs-dir", str(tmp_path), "--sessions", "-3"]
        ) == 2
        assert faultstudy_main(
            ["--runs-dir", str(tmp_path), "--intensity", "1.5"]
        ) == 2

    def test_grid_constants(self):
        assert FAULT_DEFAULT_N == 64
        assert FAULT_SMOKE_N == 24
        assert DEFAULT_INTENSITIES == (0.0, 0.2, 0.4, 0.6)
        assert SMOKE_INTENSITIES == (0.0, 0.6)
        assert POLICY_LADDER == ("none", "retry", "retry_breaker", "full")
