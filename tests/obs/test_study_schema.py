"""The grid-study summary validators, one checked field at a time.

``validate_faultstudy`` and ``validate_abrstudy`` gate the summaries of
``repro faultstudy`` and ``repro abrstudy``: schema and version, grid
keys, string and numeric row fields, ratios at most 1, integer outcome
buckets, the conservation law (the buckets other than ``offered`` sum to
``offered``) and ``missing_cells``.  Each case breaks one field of a
valid summary and pins the exact message.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.schema import validate_abrstudy, validate_faultstudy, validate_file

FAULTSTUDY = {
    "schema": "repro-faultstudy",
    "version": 1,
    "grid": {"ns": [12], "seeds": [4], "intensities": [0.6], "policies": ["full"]},
    "rows": [{
        "policy": "full", "intensity": 0.6, "availability": 0.9, "mttr_vms": 3.0,
        "retry_amplification": 1.2, "mean_psnr_db": 30.0, "p99_latency_vms": 40.0,
        "outcomes": {"offered": 10, "served": 6, "served_retry": 1, "degraded": 1,
                     "shed": 1, "quarantined": 1},
    }],
    "missing_cells": [],
}

ABRSTUDY = {
    "schema": "repro-abrstudy",
    "version": 1,
    "grid": {"ns": [12], "seeds": [4], "bandwidths_kbps": [300], "profiles": ["steady"],
             "policies": ["abr"]},
    "rows": [{
        "profile": "steady", "policy": "abr", "bandwidth_kbps": 300,
        "availability": 0.9, "rebuffer_ratio": 0.1, "switch_rate": 0.2,
        "mean_rung": 1.5, "mean_psnr_db": 30.0,
        "outcomes": {"offered": 14, "served": 8, "served_retry": 1, "degraded": 1,
                     "switched_down": 1, "rebuffered": 1, "shed": 1, "quarantined": 1},
    }],
    "missing_cells": [],
}


def common_cases(name, schema, grid_keys, numbers, buckets, summary):
    """Breakages both summaries share, as ``(path, value, message)``."""
    outcomes = summary["rows"][0]["outcomes"]
    cases = [
        (("schema",), "x", f"{name}: schema is 'x', want {schema!r}"),
        (("version",), 2, f"{name}: version is 2, want 1"),
        (("grid",), [], f"{name}: grid missing or not an object"),
        (("rows",), [], f"{name}: rows missing or empty"),
        (("rows", 0), "x", "rows[0]: not an object"),
        (("rows", 0, "outcomes"), [], "rows[0]: outcomes missing or not an object"),
        (("rows", 0, "outcomes", "served"), outcomes["served"] + 1,
         f"rows[0]: conservation violated ({outcomes['offered'] + 1} accounted "
         f"vs {outcomes['offered']} offered)"),
        (("missing_cells",), None, f"{name}: missing_cells missing or not a list"),
    ]
    cases += [(("grid", key), [], f"{name}: grid.{key} missing or empty")
              for key in grid_keys]
    cases += [(("rows", 0, key), -1, f"rows[0]: {key!r} must be a non-negative number")
              for key in numbers]
    cases += [(("rows", 0, "outcomes", key), value,
               f"rows[0]: outcomes.{key} must be a non-negative integer")
              for key in buckets for value in (-1, 1.0)]
    return cases


FAULT_CASES = common_cases(
    "faultstudy", "repro-faultstudy", ("ns", "seeds", "intensities", "policies"),
    ("availability", "mttr_vms", "retry_amplification", "mean_psnr_db",
     "p99_latency_vms"),
    ("offered", "served", "served_retry", "degraded", "shed", "quarantined"),
    FAULTSTUDY,
) + [
    (("rows", 0, "policy"), 3, "rows[0]: policy missing or not a string"),
    (("rows", 0, "intensity"), 1.5, "rows[0]: intensity must be a number in [0, 1]"),
    (("rows", 0, "intensity"), "high", "rows[0]: intensity must be a number in [0, 1]"),
    (("rows", 0, "availability"), 1.5, "rows[0]: availability 1.5 exceeds 1"),
]

ABR_CASES = common_cases(
    "abrstudy", "repro-abrstudy",
    ("ns", "seeds", "bandwidths_kbps", "profiles", "policies"),
    ("availability", "rebuffer_ratio", "switch_rate", "mean_rung", "mean_psnr_db"),
    ("offered", "served", "served_retry", "degraded", "switched_down", "rebuffered",
     "shed", "quarantined"), ABRSTUDY,
) + [
    (("rows", 0, "profile"), None, "rows[0]: profile missing or not a string"),
    (("rows", 0, "policy"), 3, "rows[0]: policy missing or not a string"),
    (("rows", 0, "bandwidth_kbps"), 0, "rows[0]: bandwidth_kbps must be positive"),
    (("rows", 0, "bandwidth_kbps"), "fast", "rows[0]: bandwidth_kbps must be positive"),
    (("rows", 0, "availability"), 1.5, "rows[0]: availability 1.5 exceeds 1"),
    (("rows", 0, "rebuffer_ratio"), 2, "rows[0]: rebuffer_ratio 2 exceeds 1"),
]

SCHEMAS = {
    "faultstudy": (FAULTSTUDY, validate_faultstudy, FAULT_CASES),
    "abrstudy": (ABRSTUDY, validate_abrstudy, ABR_CASES),
}


def broken(summary: dict, path: tuple, value) -> dict:
    copied = copy.deepcopy(summary)
    target = copied
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copied


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_a_valid_summary_has_no_problem(name, tmp_path):
    summary, validate, _ = SCHEMAS[name]
    assert validate(summary) == []
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert validate_file(path) == []


@pytest.mark.parametrize(
    "name, path, value, message",
    [(name, *case) for name in sorted(SCHEMAS) for case in SCHEMAS[name][2]],
    ids=[f"{name}-{'.'.join(map(str, path))}={value!r}"
         for name in sorted(SCHEMAS) for path, value, _ in SCHEMAS[name][2]],
)
def test_each_broken_field_names_its_problem(name, path, value, message):
    summary, validate, _ = SCHEMAS[name]
    assert validate(broken(summary, path, value)) == [message]
