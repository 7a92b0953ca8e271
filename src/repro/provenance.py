"""Run provenance: who produced this artifact, from which tree, with
which knobs.

Benchmark JSONs (``BENCH_*.json``), telemetry exports, and obs reports
all embed :func:`run_metadata` so a number on disk is attributable: the
git SHA it was measured at, the host it ran on, and the engine knobs
(``REPRO_CODEC_ENGINE``, ``REPRO_CODEC_IDCT``, ``REPRO_ENGINE``) that
select between code paths with very different performance.  Each knob
records the engine the run uses, not the raw variable: with no C kernel
an unset ``REPRO_ENGINE`` runs, and is recorded as, ``reference``.
Without this, a perf trajectory across commits is guesswork.
"""

from __future__ import annotations

import platform
import socket
import subprocess
import sys
from pathlib import Path

__all__ = ["git_sha", "run_metadata"]


def git_sha(repo_root: str | Path | None = None) -> str:
    """The current commit SHA (``unknown`` outside a git checkout)."""
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata() -> dict:
    """Provenance block embedded in benchmark/telemetry artifacts."""
    from repro.codec.engine import ENGINE_ENV, IDCT_ENV, codec_engine, codec_idct
    from repro.memsim.fastpath import engine_name

    return {
        "git_sha": git_sha(),
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "engine_knobs": {
            ENGINE_ENV: codec_engine(),
            IDCT_ENV: codec_idct(),
            "REPRO_ENGINE": engine_name(),
        },
    }
