"""Each ``repro`` module imports first, and each command loads only what it runs.

The suite imports everything in one interpreter, where an earlier import
can hide a cycle: ``repro.trace.persistence`` once imported
``repro.core.runner.chaos``, whose package ``__init__`` imported
``repro.core.study``, which imported the half-initialised persistence
module.  So every module under ``src/repro`` is imported first in a
process of its own: one interpreter preloads NumPy, which is not part of
the graph, and forks one child per module.

The footprint tests pin what a fresh interpreter holds after importing a
command's entry points, so a module-level import cannot quietly drag the
traced study stack (or NumPy) into a command that never calls it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPRO = Path(importlib.util.find_spec("repro").origin).parent
_SRC = _REPRO.parent

_IMPORT_EACH = """
import importlib, json, os, sys, traceback
import numpy

failures = {}
for name in sys.argv[1:]:
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            importlib.import_module(name)
            report = b""
        except BaseException:
            report = traceback.format_exc().encode()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(report)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        report = pipe.read().decode()
    status = os.waitpid(pid, 0)[1]
    if report or status:
        failures[name] = report or f"child exited with status {status}"
print(json.dumps(failures))
"""


def _modules() -> list[str]:
    names = []
    for path in sorted(_REPRO.rglob("*.py")):
        parts = path.relative_to(_SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


MODULES = _modules()


def _run(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    # A single-threaded BLAS: NumPy's import starts no thread, so forking
    # after it cannot leave a child waiting on a lock no thread will free.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def import_failures() -> dict[str, str]:
    return json.loads(_run(["-c", _IMPORT_EACH, *MODULES]))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module, import_failures):
    assert module not in import_failures, import_failures[module]


_STUDY_STACK = ("repro.core.study", "repro.core.experiments", "repro.memsim", "repro.trace")


@pytest.mark.parametrize("statement, absent", [
    ("import repro.cli, repro.service.cli", ("numpy",) + _STUDY_STACK),
    ("import repro.service.study, repro.service.abrstudy", _STUDY_STACK),
    ("import repro.ioutil", ("numpy",)),
    ("import repro.obs", ("numpy",)),
], ids=["cli", "service-studies", "ioutil", "obs"])
def test_import_footprint(statement, absent):
    loaded = json.loads(_run(["-c", f"{statement}\nimport json, sys\n"
                              "print(json.dumps(sorted(sys.modules)))"]))
    unwanted = [a for a in absent if any(m == a or m.startswith(a + ".") for m in loaded)]
    assert not unwanted, f"{statement!r} loaded {unwanted}"
