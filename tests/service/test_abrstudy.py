"""ABR-study acceptance: cells, sweeps, backends, CLI.

The acceptance contract of ``python -m repro abrstudy``: published
tables are byte-identical across repeat runs, backends, ``--jobs``
counts, ``--resume``, and a chaos kill-and-resume drill (in
``tests/core/runner/test_sweep.py``) -- and at the
pinned seed, 5% mean loss, and the 3-step bandwidth-drop profile the
hybrid ABR policy beats the fixed-rendition baseline on both rebuffer
ratio and shed count at equal provisioned bandwidth.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import validate_abrstudy, validate_file
from repro.service.abr import ABR_POLICY_LADDER
from repro.service.abrstudy import (
    ABR_DEFAULT_N,
    ABR_SMOKE_N,
    DEFAULT_BANDWIDTHS_KBPS,
    SMOKE_BANDWIDTHS_KBPS,
    SMOKE_PROFILES,
    AbrCell,
    run_abr_cell,
    run_abr_sweep,
    summarize_abr,
)
from repro.service.cli import abrstudy_main

@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


class TestRunAbrCell:
    def test_deterministic_record(self):
        cell = AbrCell(16, 4, 36, "step_drop", "hybrid")
        record_a, _ = run_abr_cell(cell)
        record_b, _ = run_abr_cell(cell)
        assert record_a == record_b

    def test_record_accounting(self):
        record, wall = run_abr_cell(AbrCell(24, 4, 36, "step_drop", "hybrid"))
        outcomes = record["outcomes"]
        assert outcomes["offered"] == 24
        delivered = sum(
            outcomes[key]
            for key in ("served", "served_retry", "degraded",
                        "switched_down", "rebuffered")
        )
        assert (
            delivered + outcomes["shed"] + outcomes["quarantined"]
            == outcomes["offered"]
        )
        assert record["abr"]["delivered"] == delivered
        assert sum(record["quality"]["decode_outcomes"].values()) == delivered
        assert 0.0 <= record["abr"]["rebuffer_ratio"] <= 1.0
        assert len(record["fleet_digest"]) == 64
        assert [r["name"] for r in record["ladder"]] == [
            "r0_base", "r1_econ", "r2_main", "r3_high"
        ]
        assert wall["cell_id"] == record["cell_id"] \
            == "n24+s4+b36+step_drop+hybrid"
        assert wall["controller_wall_s"] >= 0.0

    def test_acceptance_hybrid_beats_fixed_on_the_drop_profile(self):
        """ISSUE acceptance: at the pinned seed, 5% mean loss, and the
        3-step bandwidth drop, hybrid achieves strictly lower rebuffer
        ratio AND strictly fewer shed sessions than fixed at equal
        provisioned bandwidth."""
        fixed, _ = run_abr_cell(
            AbrCell(ABR_DEFAULT_N, 4, 36, "step_drop", "fixed")
        )
        hybrid, _ = run_abr_cell(
            AbrCell(ABR_DEFAULT_N, 4, 36, "step_drop", "hybrid")
        )
        assert hybrid["abr"]["rebuffer_ratio"] \
            < fixed["abr"]["rebuffer_ratio"]
        assert hybrid["outcomes"]["shed"] < fixed["outcomes"]["shed"]

    def test_small_cells_embed_per_session_table(self):
        record, _ = run_abr_cell(AbrCell(16, 4, 36, "step_drop", "hybrid"))
        sessions = record["sessions"]
        assert len(sessions) == 16
        for session in sessions:
            if session["outcome"] in ("shed",):
                assert session["shed_reason"] is not None
            elif session["outcome"] == "quarantined":
                assert session["quarantine_reason"] is not None
            else:
                assert len(session["rungs"]) == 8
                assert session["decode_outcome"] in (
                    "decoded", "concealed", "rejected"
                )

    def test_large_cells_omit_per_session_table(self):
        record, _ = run_abr_cell(AbrCell(65, 4, 48, "steady", "fixed"))
        assert "sessions" not in record

    def test_custom_ladder_subset(self):
        from repro.codec.renditions import DEFAULT_LADDER

        record, _ = run_abr_cell(
            AbrCell(12, 4, 36, "steady", "hybrid"),
            ladder=DEFAULT_LADDER[:2],
        )
        assert [r["name"] for r in record["ladder"]] == ["r0_base", "r1_econ"]
        for session in record["sessions"]:
            for rung in session.get("rungs", []):
                assert rung in (0, 1)

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError):
            AbrCell(16, 4, 0, "steady", "hybrid")
        with pytest.raises(ValueError):
            AbrCell(16, 4, 36, "nope", "hybrid")
        with pytest.raises(ValueError):
            AbrCell(16, 4, 36, "steady", "nope")
        with pytest.raises(ValueError):
            run_abr_cell(AbrCell(12, 4, 36, "steady", "hybrid"), ladder=())


class TestRunAbrSweep:
    NS = (12,)
    SEEDS = (4,)
    BANDWIDTHS = (16, 36)
    PROFILES = ("step_drop",)
    POLICIES = ("fixed", "hybrid")

    def sweep(self, run_dir, **kw):
        return run_abr_sweep(
            run_dir, ns=self.NS, seeds=self.SEEDS,
            bandwidths=self.BANDWIDTHS, profiles=self.PROFILES,
            policies=self.POLICIES, **kw
        )

    def test_repeat_runs_byte_identical(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "a")
        self.sweep(tmp_path / "b")
        assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")

    def test_jobs_and_backend_invariance(self, tmp_path, read_artifacts):
        self.sweep(tmp_path / "serial", backend="serial", jobs=1)
        self.sweep(tmp_path / "async4", backend="asyncio", jobs=4)
        self.sweep(tmp_path / "fleet2", backend="fleet", jobs=2)
        reference = read_artifacts(tmp_path / "serial")
        assert read_artifacts(tmp_path / "async4") == reference
        assert read_artifacts(tmp_path / "fleet2") == reference

    def test_resume_reuses_published_cells(self, tmp_path, read_artifacts):
        first = self.sweep(tmp_path / "run")
        assert first["skipped_cells"] == 0
        before = read_artifacts(tmp_path / "run")
        resumed = self.sweep(tmp_path / "run", resume=True)
        assert resumed["skipped_cells"] == 4
        assert read_artifacts(tmp_path / "run") == before

    def test_corrupt_cell_recomputed_on_resume(self, tmp_path):
        self.sweep(tmp_path / "run")
        victim = tmp_path / "run" / "cells" / "n12+s4+b36+step_drop+hybrid.json"
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
        assert summary["schema"] == "repro-abrstudy"
        broken = json.loads(summary_path.read_text())
        broken["rows"][0]["outcomes"]["served"] += 1
        assert any(
            "conservation" in problem
            for problem in validate_abrstudy(broken)
        )

    def test_summary_names_missing_cells(self, tmp_path):
        self.sweep(tmp_path / "run")
        summary = summarize_abr(
            tmp_path / "run", ns=self.NS, seeds=self.SEEDS,
            bandwidths=(16, 36, 48), profiles=self.PROFILES,
            policies=self.POLICIES,
        )
        assert summary["missing_cells"] == [
            "n12+s4+b48+step_drop+fixed", "n12+s4+b48+step_drop+hybrid"
        ]

    def test_controller_wall_stays_out_of_the_record(self, tmp_path):
        self.sweep(tmp_path / "run")
        cell = json.loads(
            (tmp_path / "run" / "cells"
             / "n12+s4+b36+step_drop+hybrid.json").read_text()
        )
        assert "controller_wall_s" not in json.dumps(cell)
        wall_path = tmp_path / "run" / "telemetry" / "wall.json"
        assert validate_file(wall_path) == []
        wall = json.loads(wall_path.read_text())
        assert all("controller_wall_s" in c for c in wall["cells"])


class TestAbrstudyCli:
    def run(self, tmp_path, *args):
        return abrstudy_main(
            ["--runs-dir", str(tmp_path), "--backend", "serial",
             "--sessions", "12", "--bandwidth", "16", "36",
             "--profile", "step_drop", "--policy", "fixed", "hybrid", *args]
        )

    def test_acceptance_twice_identical_and_jobs_invariant(
        self, tmp_path, capsys, read_artifacts
    ):
        assert self.run(tmp_path, "--run-id", "a") == 0
        assert self.run(tmp_path, "--run-id", "b") == 0
        assert abrstudy_main(
            ["--runs-dir", str(tmp_path), "--sessions", "12",
             "--bandwidth", "16", "36", "--profile", "step_drop",
             "--policy", "fixed", "hybrid",
             "--backend", "asyncio", "--jobs", "4", "--run-id", "c"]
        ) == 0
        a = read_artifacts(tmp_path / "a")
        assert read_artifacts(tmp_path / "b") == a
        assert read_artifacts(tmp_path / "c") == a
        output = capsys.readouterr().out
        assert "rebuf%" in output and "PSNR" in output

    def test_verify_complete_passes_on_full_grid(self, tmp_path, capsys):
        assert self.run(tmp_path, "--run-id", "ok", "--verify-complete") == 0
        assert "verify-complete passed" in capsys.readouterr().out

    def test_resume_reuses_cells(self, tmp_path, capsys):
        assert self.run(tmp_path, "--run-id", "again") == 0
        assert self.run(tmp_path, "--resume", "again") == 0
        assert "4 reused" in capsys.readouterr().out

    def test_grid_constants(self):
        assert ABR_DEFAULT_N == 64
        assert ABR_SMOKE_N == 24
        assert DEFAULT_BANDWIDTHS_KBPS == (8, 16, 24, 36, 48)
        assert SMOKE_BANDWIDTHS_KBPS == (16, 36)
        assert SMOKE_PROFILES == ("step_drop",)
        assert ABR_POLICY_LADDER == ("fixed", "buffer", "throughput", "hybrid")
