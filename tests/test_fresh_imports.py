"""Each module of the simulator and trace packages imports first.

The suite imports everything in one interpreter, where an earlier import
can hide a cycle: ``repro.trace.persistence`` once imported
``repro.core.runner.chaos``, whose package ``__init__`` imports
``repro.core.study``, which imports the half-initialised persistence
module.  So each module here gets a fresh interpreter of its own.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPRO = Path(importlib.util.find_spec("repro").origin).parent
_SRC = _REPRO.parent


def _modules(package: str) -> list[str]:
    names = [f"repro.{package}"]
    for path in sorted((_REPRO / package).glob("*.py")):
        if path.stem != "__init__":
            names.append(f"repro.{package}.{path.stem}")
    return names


@pytest.mark.parametrize("module", _modules("trace") + _modules("memsim"))
def test_module_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
