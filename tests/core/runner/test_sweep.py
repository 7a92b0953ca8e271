"""The shared publish/resume kernel: cell files, resume, attempts, chaos
keys, the runs-root resolver, and one kill-and-resume drill per study."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.runner import sweep
from repro.core.runner.chaos import POINT_WORKER_CELL, PROFILES, ChaosInjector
from repro.obs.schema import validate_file
from repro.service.cli import serve_main
from repro.transport.study import SMOKE_LOSSES, SMOKE_SEEDS, grid_cells

REPO_SRC = Path(__file__).resolve().parents[3] / "src"


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


@dataclass(frozen=True)
class Cell:
    cell_id: str


CELLS = [Cell("a"), Cell("bb"), Cell("ccc")]


class Demo:
    """A three-cell study whose records are a pure function of the cell."""

    def __init__(self) -> None:
        self.ran: list[str] = []

    def run_cell(self, cell: Cell) -> tuple[dict, dict]:
        self.ran.append(cell.cell_id)
        record = {"cell_id": cell.cell_id, "size": len(cell.cell_id)}
        wall = {"cell_id": cell.cell_id, "wall_s": 0.0,
                "sessions_per_wall_sec": 0.0}
        return record, wall

    def sweep(self, run_dir: Path, resume: bool = False) -> dict:
        return sweep.run_grid(
            "demo", run_dir, CELLS, self.run_cell, summarize, render, resume
        )


def summarize(run_dir: Path) -> dict:
    records, missing = sweep.load_cells(run_dir, CELLS)
    return {"sizes": [r["size"] for r in records], "missing_cells": missing}


def render(summary: dict) -> str:
    return f"sizes {summary['sizes']}"


def attempts(run_dir: Path) -> dict[str, int]:
    return {
        cell.cell_id: int((run_dir / "cells" / f"{cell.cell_id}.attempt")
                          .read_text())
        for cell in CELLS
    }


class TestRunGrid:
    def test_publishes_cells_summary_table_and_wall(self, tmp_path):
        summary = Demo().sweep(tmp_path)
        assert summary["sizes"] == [1, 2, 3]
        assert summary["published_cells"] == 3
        assert summary["skipped_cells"] == 0
        assert sweep.load_cell(tmp_path, "bb") == {"cell_id": "bb", "size": 2}
        published = json.loads((tmp_path / "summary.json").read_text())
        assert published == {"sizes": [1, 2, 3], "missing_cells": []}
        assert (tmp_path / "table.txt").read_text() == "sizes [1, 2, 3]\n"
        assert validate_file(tmp_path / "telemetry" / "wall.json") == []

    def test_no_wall_records_no_sidecar(self, tmp_path):
        sweep.run_grid("demo", tmp_path, CELLS,
                       lambda cell: (Demo().run_cell(cell)[0], None),
                       summarize, render)
        assert not (tmp_path / "telemetry").exists()

    def test_resume_skips_verified_cells(self, tmp_path, read_artifacts):
        Demo().sweep(tmp_path)
        before = read_artifacts(tmp_path)
        demo = Demo()
        summary = demo.sweep(tmp_path, resume=True)
        assert demo.ran == []
        assert summary["skipped_cells"] == 3
        assert summary["published_cells"] == 3
        assert read_artifacts(tmp_path) == before

    @pytest.mark.parametrize(
        "payload",
        ["truncated", "wrong digest", "[]", '"tampered"', "null", "42"],
    )
    def test_invalid_cell_is_recomputed_on_resume(self, tmp_path, payload):
        Demo().sweep(tmp_path)
        victim = tmp_path / "cells" / "bb.json"
        good = victim.read_bytes()
        if payload == "truncated":
            victim.write_bytes(good[: len(good) // 2])
        elif payload == "wrong digest":
            victim.write_text(good.decode().replace('"size": 2', '"size": 9'))
        else:
            victim.write_text(payload)
        assert sweep.load_cell(tmp_path, "bb") is None
        demo = Demo()
        summary = demo.sweep(tmp_path, resume=True)
        assert demo.ran == ["bb"]
        assert summary["skipped_cells"] == 2
        assert victim.read_bytes() == good

    def test_missing_cells_are_reported(self, tmp_path):
        Demo().sweep(tmp_path)
        (tmp_path / "cells" / "a.json").unlink()
        records, missing = sweep.load_cells(tmp_path, CELLS)
        assert [r["cell_id"] for r in records] == ["bb", "ccc"]
        assert missing == ["a"]

    def test_attempt_counter_increments(self, tmp_path):
        Demo().sweep(tmp_path)
        assert attempts(tmp_path) == {"a": 1, "bb": 1, "ccc": 1}
        Demo().sweep(tmp_path)
        assert attempts(tmp_path) == {"a": 2, "bb": 2, "ccc": 2}
        (tmp_path / "cells" / "ccc.json").write_text("{}")
        Demo().sweep(tmp_path, resume=True)
        assert attempts(tmp_path) == {"a": 2, "bb": 2, "ccc": 3}

    def test_chaos_keys_name_study_cell_and_attempt(self, tmp_path,
                                                    monkeypatch):
        struck = []
        monkeypatch.setattr(sweep, "strike_from_env",
                            lambda point, key: struck.append((point, key)))
        Demo().sweep(tmp_path)
        (tmp_path / "cells" / "a.json").unlink()
        Demo().sweep(tmp_path, resume=True)
        assert struck == [
            (POINT_WORKER_CELL, "demo:a/a1"),
            (POINT_WORKER_CELL, "demo:bb/a1"),
            (POINT_WORKER_CELL, "demo:ccc/a1"),
            (POINT_WORKER_CELL, "demo:a/a2"),
        ]

    def test_failed_cell_leaves_earlier_cells_published(self, tmp_path):
        def run_cell(cell):
            if cell.cell_id == "bb":
                raise RuntimeError("boom")
            return Demo().run_cell(cell)

        with pytest.raises(RuntimeError):
            sweep.run_grid("demo", tmp_path, CELLS, run_cell, summarize,
                           render)
        assert sweep.load_cell(tmp_path, "a") == {"cell_id": "a", "size": 1}
        assert not (tmp_path / "cells" / "bb.json").exists()
        assert not (tmp_path / "summary.json").exists()


class TestStudyRunDir:
    def test_runs_dir_holds_run_directories(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "/elsewhere")
        assert sweep.study_run_dir("serve", "X", "id") == Path("X/id")

    def test_env_root_then_study(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "/from-env")
        assert sweep.study_run_dir("abrstudy", None, "id") == Path(
            "/from-env/abrstudy/id"
        )

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_env_means_default(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_RUNS", raising=False)
        else:
            monkeypatch.setenv("REPRO_RUNS", value)
        assert sweep.study_run_dir("resilience", None, "id") == Path(
            ".repro-runs/resilience/id"
        )

    def test_empty_env_cli_writes_under_default_root(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "")
        monkeypatch.chdir(tmp_path)
        assert serve_main(["--sessions", "2", "--run-id", "e"]) == 0
        assert (tmp_path / ".repro-runs" / "serve" / "e" / "summary.json"
                ).is_file()
        assert not (tmp_path / "serve").exists()


#: study -> (CLI arguments, the ids of the cells they select, in order).
DRILLS = {
    "serve": (["--sessions", "12", "--seed", "4"], ["n12+s4"]),
    "faultstudy": (["--sessions", "12", "--seed", "4", "--intensity", "0.6",
                    "--policy", "retry"], ["n12+s4+i60+retry"]),
    "abrstudy": (["--sessions", "12", "--seed", "4", "--bandwidth", "36",
                  "--profile", "step_drop", "--policy", "hybrid"],
                 ["n12+s4+b36+step_drop+hybrid"]),
    "resilience": (["--smoke", "--configs", "plain"],
                   [cell.cell_id for cell in grid_cells(
                       SMOKE_LOSSES, SMOKE_SEEDS, ["plain"])]),
}


def _drill_seed(study: str, cell_ids: list[str]) -> int:
    """A ``kills`` chaos seed that kills the first cell's first attempt,
    at most one other first attempt, and no killed cell's second attempt
    -- so the drill finishes in at most two chaos-armed resumes."""
    for seed in range(1, 20_000):
        injector = ChaosInjector(seed, PROFILES["kills"])

        def kills(attempt: int) -> list[bool]:
            return [
                injector.fault_at(POINT_WORKER_CELL,
                                  f"{study}:{cell_id}/a{attempt}") == "kill"
                for cell_id in cell_ids
            ]

        first, second = kills(1), kills(2)
        if (first[0] and sum(first) <= 2
                and not any(a and b for a, b in zip(first, second))):
            return seed
    raise AssertionError("no suitable chaos seed found")


class TestKillAndResumeDrill:
    """A SIGKILLed study, resumed under the same chaos, finishes
    byte-identical to a clean run."""

    def repro(self, tmp_path, study, *args, chaos=None):
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        env.pop("REPRO_CHAOS", None)
        env.pop("REPRO_OBS", None)
        if chaos is not None:
            env["REPRO_CHAOS"] = chaos
        command = [sys.executable, "-m", "repro", study, *DRILLS[study][0],
                   "--runs-dir", str(tmp_path), *args]
        return subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=180)

    @pytest.mark.parametrize("study", sorted(DRILLS))
    def test_kill_and_resume_is_bit_identical(self, tmp_path, study,
                                              read_artifacts):
        clean = self.repro(tmp_path, study, "--run-id", "clean",
                           "--verify-complete")
        assert clean.returncode == 0, clean.stderr

        chaos = f"{_drill_seed(study, DRILLS[study][1])}:kills"
        struck = self.repro(tmp_path, study, "--run-id", "drill",
                            chaos=chaos)
        assert struck.returncode != 0  # SIGKILLed mid-sweep

        for _ in range(2):
            finished = self.repro(tmp_path, study, "--resume", "drill",
                                  "--verify-complete", chaos=chaos)
            if finished.returncode == 0:
                break
        assert finished.returncode == 0, finished.stderr
        assert "verify-complete passed" in finished.stdout
        assert read_artifacts(tmp_path / "drill") == read_artifacts(
            tmp_path / "clean"
        )
