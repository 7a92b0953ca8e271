"""Shared fixtures and collection hooks for the whole suite.

Three jobs:

- every test gets a ``tier1`` marker unless it opted into ``slow`` or
  ``fuzz``, so ``-m tier1`` / ``-m "not slow"`` select the commit gate
  without hand-tagging hundreds of tests;
- randomized tests draw from the shared ``rng`` fixture, seeded from a
  stable hash of the test's node id.  The stream is deterministic
  run-to-run and machine-to-machine, distinct per test (and per
  parametrized case), and independent of test execution order;
- study tests compare run directories through ``read_artifacts``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if not any(
            item.get_closest_marker(name) for name in ("slow", "fuzz", "tier1")
        ):
            item.add_marker(pytest.mark.tier1)


def _node_seed(nodeid: str) -> int:
    digest = hashlib.sha256(nodeid.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Deterministic per-test random generator (seeded from the node id)."""
    return np.random.default_rng(_node_seed(request.node.nodeid))


def _read_artifacts(run_dir: Path) -> dict[str, bytes]:
    artifacts = {}
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file() or path.suffix == ".attempt":
            continue
        relative = path.relative_to(run_dir)
        if relative.parts[0] == "telemetry":
            continue
        artifacts[str(relative)] = path.read_bytes()
    return artifacts


@pytest.fixture
def read_artifacts():
    """``run_dir -> {relative path: bytes}`` over a study run's
    deterministic artifacts: attempt counters and telemetry, which
    legitimately differ between runs, are left out."""
    return _read_artifacts
