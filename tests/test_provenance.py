"""Provenance names the simulation and codec engines the run actually uses."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.memsim.fastpath import ENGINES, engine_class
from repro.provenance import run_metadata

_SRC = Path(importlib.util.find_spec("repro").origin).parent.parent


@pytest.mark.parametrize("setting", [None, "fast", "reference"])
def test_recorded_engine_is_the_engine_class(monkeypatch, setting):
    if setting is None:
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
    else:
        monkeypatch.setenv("REPRO_ENGINE", setting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        used = engine_class()
    assert ENGINES[run_metadata()["engine_knobs"]["REPRO_ENGINE"]] is used


def _without_kernels(script: str, unset: str):
    """``script``'s JSON output in a fresh interpreter where no C kernel
    loads (an uncreatable kernel cache) and ``unset`` is not set."""
    env = {k: v for k, v in os.environ.items() if k != unset}
    env["REPRO_KERNEL_CACHE"] = "/dev/null/kernels"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_kernel_and_no_setting_records_reference():
    script = (
        "import json, warnings\n"
        "from repro.memsim.fastpath import engine_class\n"
        "from repro.provenance import run_metadata\n"
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "print(json.dumps([run_metadata()['engine_knobs']['REPRO_ENGINE'],"
        " engine_class().__name__]))\n"
    )
    assert _without_kernels(script, "REPRO_ENGINE") == ["reference", "MemoryHierarchy"]


def test_no_kernel_and_no_setting_records_the_reference_codec_engine():
    script = (
        "import json, warnings\n"
        "from repro.provenance import run_metadata\n"
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "print(json.dumps(run_metadata()['engine_knobs']['REPRO_CODEC_ENGINE']))\n"
    )
    assert _without_kernels(script, "REPRO_CODEC_ENGINE") == "reference"
