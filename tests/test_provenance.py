"""Provenance names the simulation engine the run actually uses."""

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


def test_no_kernel_and_no_setting_records_reference():
    # An uncreatable kernel cache leaves the C kernel unloadable.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    env["REPRO_KERNEL_CACHE"] = "/dev/null/kernels"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    script = (
        "import json, warnings\n"
        "from repro.memsim.fastpath import engine_class\n"
        "from repro.provenance import run_metadata\n"
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "print(json.dumps([run_metadata()['engine_knobs']['REPRO_ENGINE'],"
        " engine_class().__name__]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["reference", "MemoryHierarchy"]
