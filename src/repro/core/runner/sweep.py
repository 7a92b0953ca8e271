"""The publish/resume kernel shared by every grid study.

``repro serve``, ``faultstudy``, ``abrstudy`` and ``resilience`` each
measure a grid of cells and render the published cells as a table.  A
study supplies its cells, a ``run_cell(cell) -> (record, wall)``
callable, a summarizer and a renderer; this module owns the rest.  A
run is one directory::

    <run_dir>/
        cells/<cell_id>.json      one self-digested record per grid cell
        cells/<cell_id>.attempt   the cell's persisted attempt counter
        telemetry/wall.json       wall-clock sidecar (never diffed)
        summary.json              the study's aggregate of its cells
        table.txt                 the rendered table

Every file is published with :func:`repro.ioutil.atomic_write`, so a
SIGKILL leaves only whole files.  A cell record carries the sha256 of
its own canonical JSON; a reader treats anything else -- a torn file, a
wrong digest, valid JSON that is not an object -- as absent, and
``--resume`` recomputes it.  Records are pure functions of their cell,
so a resumed run is byte-identical to an uninterrupted one.  Chaos
drills strike each cell at ``<study>:<cell_id>/a<attempt>``; because
the attempt counter persists across processes, a retried cell draws a
fresh fault.

``repro study`` keeps :class:`~repro.core.runner.manifest.RunManifest`
as its ledger: its cells commit pickled payloads with a quarantine
history, which this scheme has no use for.  Both resolve the runs root
with :func:`~repro.core.runner.manifest.runs_root`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

from repro.core.runner.chaos import POINT_WORKER_CELL, strike_from_env
from repro.core.runner.manifest import runs_root
from repro.ioutil import atomic_write, sha256_hex
from repro.obs.schema import SCHEMA_SERVICE_WALL

__all__ = [
    "add_run_arguments",
    "load_cell",
    "load_cells",
    "run_from_cli",
    "run_grid",
    "study_run_dir",
]


def _canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _digest(record: dict) -> str:
    return sha256_hex(_canonical(record).encode("utf-8"))


def _cell_path(run_dir: Path, cell_id: str, suffix: str = ".json") -> Path:
    return Path(run_dir) / "cells" / f"{cell_id}{suffix}"


def load_cell(run_dir: str | Path, cell_id: str) -> dict | None:
    """A published cell record, or None when absent or invalid."""
    try:
        payload = json.loads(_cell_path(run_dir, cell_id).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.pop("digest", None) != _digest(payload):
        return None
    return payload


def load_cells(run_dir: str | Path, cells) -> tuple[list[dict], list[str]]:
    """``(records, missing)``: the valid records of ``cells`` in order,
    and the ids of the cells that have none."""
    records, missing = [], []
    for cell in cells:
        record = load_cell(run_dir, cell.cell_id)
        if record is None:
            missing.append(cell.cell_id)
        else:
            records.append(record)
    return records, missing


def _next_attempt(run_dir: Path, cell_id: str) -> int:
    """Bump and return the cell's persisted attempt counter."""
    marker = _cell_path(run_dir, cell_id, ".attempt")
    try:
        attempt = int(marker.read_text()) + 1
    except (OSError, ValueError):
        attempt = 1
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text(str(attempt))
    return attempt


def run_grid(
    study: str,
    run_dir: str | Path,
    cells: Sequence,
    run_cell: Callable,
    summarize: Callable[[Path], dict],
    render: Callable[[dict], str],
    resume: bool = False,
) -> dict:
    """Run (or, with ``resume``, finish) one study's grid.

    Each cell (anything with a ``cell_id``) is run with
    ``run_cell(cell) -> (record, wall)`` and its record published;
    with ``resume``, cells that already have a valid record are
    skipped.  ``wall`` (wall-clock telemetry, or None) goes to the
    sidecar.  Then ``summarize(run_dir)`` and ``render(summary)`` are
    published as ``summary.json`` and ``table.txt``.  Returns the
    summary plus the run's ``skipped_cells`` and ``published_cells``
    counts.
    """
    run_dir = Path(run_dir)
    skipped = 0
    walls = []
    for cell in cells:
        if resume and load_cell(run_dir, cell.cell_id) is not None:
            skipped += 1
            continue
        attempt = _next_attempt(run_dir, cell.cell_id)
        strike_from_env(POINT_WORKER_CELL, f"{study}:{cell.cell_id}/a{attempt}")
        record, wall = run_cell(cell)
        record["digest"] = _digest(record)
        atomic_write(_cell_path(run_dir, cell.cell_id), _canonical(record))
        if wall is not None:
            walls.append(wall)
    if walls:
        atomic_write(
            run_dir / "telemetry" / "wall.json",
            _canonical(
                {"schema": SCHEMA_SERVICE_WALL, "version": 1, "cells": walls}
            ),
        )
    summary = summarize(run_dir)
    atomic_write(run_dir / "summary.json", _canonical(summary))
    atomic_write(run_dir / "table.txt", render(summary) + "\n")
    summary["skipped_cells"] = skipped
    summary["published_cells"] = len(cells) - len(summary["missing_cells"])
    return summary


# ---------------------------------------------------------------------------
# The CLI side: run-directory flags and the report every study prints
# ---------------------------------------------------------------------------


def add_run_arguments(parser) -> None:
    """Add the run-directory flags every grid-study CLI shares."""
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="directory holding this study's run "
                             "directories (default: <$REPRO_RUNS or "
                             ".repro-runs>/<study>)")
    parser.add_argument("--run-id", default="default", metavar="ID",
                        help="run directory name (default: 'default')")
    parser.add_argument("--resume", default=None, metavar="ID",
                        help="resume a run: published cells are kept, "
                             "missing/corrupt ones recompute")
    parser.add_argument("--verify-complete", action="store_true",
                        help="exit 1 unless every grid cell is published")


def study_run_dir(study: str, runs_dir: str | None, run_id: str) -> Path:
    """``<runs_dir>/<run_id>``; without ``runs_dir``, the run lives
    under the shared runs root at ``<root>/<study>/<run_id>``."""
    root = Path(runs_dir) if runs_dir else runs_root() / study
    return root / run_id


def _export_telemetry(run_dir: Path) -> None:
    """When REPRO_OBS is on, publish the run's spans and metrics."""
    from repro import obs

    if not obs.enabled():
        return
    from repro.obs.export import export_metrics_json, export_spans_jsonl

    telemetry = run_dir / "telemetry"
    export_spans_jsonl(telemetry / "trace.jsonl", obs.tracer().drain())
    export_metrics_json(telemetry / "metrics.json", obs.registry().snapshot())
    print(f"telemetry: {telemetry}")


def run_from_cli(
    study: str,
    label: str,
    args,
    sweep: Callable[[Path, bool], dict],
    detail: str = "",
) -> int:
    """Run a parsed study CLI's grid and report it; returns the exit code.

    ``args`` carries the :func:`add_run_arguments` flags, and
    ``sweep(run_dir, resume)`` runs the grid.  Prints the published
    table and exits 1 under ``--verify-complete`` if a cell is missing.
    """
    run_id = args.resume or args.run_id
    run_dir = study_run_dir(study, args.runs_dir, run_id)
    summary = sweep(run_dir, args.resume is not None)
    verb = "resumed" if args.resume else "ran"
    print(f"{verb} {label} '{run_id}': {summary['published_cells']} cells "
          f"published ({summary['skipped_cells']} reused{detail})")
    print()
    print((run_dir / "table.txt").read_text())
    print(f"artifacts: {run_dir}")
    _export_telemetry(run_dir)
    if summary["missing_cells"]:
        print(f"missing cells: {', '.join(summary['missing_cells'])}")
        if args.verify_complete:
            print("verify-complete FAILED")
            return 1
    elif args.verify_complete:
        print("verify-complete passed: every grid cell is published")
    return 0
