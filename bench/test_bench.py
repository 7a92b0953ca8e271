"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``.

The smoke run (every workload at one op, traced and untraced, with the
reference-engine oracle) takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import LayerTracer, Target  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0.01",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads(out.read_text())


def test_each_workload_runs_one_op(smoke):
    _, report = smoke
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["correct"], (name, entry["failures"])
        assert entry["n_ops"] == 1
        assert entry["failed"] == 0 and entry["attempted"] >= 1


def test_every_benchmark_metric_is_reported_with_its_unit(smoke):
    stdout, report = smoke
    for entry in report["workloads"].values():
        for metric in SPEC["end_to_end"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            item = line["metrics"][f"{workload}/{metric['name']}"]
            assert item["unit"] == metric["unit"]
        printed = f"{workload} op_s_p50 "
        assert any(row.startswith(printed) for row in stdout.splitlines())


def test_per_layer_attribution_covers_the_op(smoke):
    _, report = smoke
    for name, entry in report["workloads"].items():
        per_layer = entry["per_layer"]
        assert per_layer["unattributed_share"]["value"] <= 0.10, name
    serve = report["workloads"]["serve_fleet"]["per_layer"]
    assert serve["codec.decoder.share"]["value"] >= 0.75
    assert serve["codec.decoder.distinct_input_ratio"]["value"] <= 0.10
    codec = report["workloads"]["codec_qcif"]["per_layer"]
    assert codec["codec.decoder.distinct_input_ratio"]["value"] == 1.0


def test_traced_op_reproduces_untraced_digests(tmp_path):
    workload = WORKLOADS["codec_qcif"]
    state = workload.setup(11, 1, tmp_path)
    plain = workload.op(state, 0, Clock())
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = workload.op(state, 0, Clock(tracer.region))
    finally:
        tracer.uninstall()
    assert traced["digests"] == plain["digests"]
    layers = tracer.take()["layers"]
    assert layers["codec.encoder"]["calls"] == 1
    assert layers["codec.decoder"]["calls"] == 2


def test_missing_target_is_absent_not_an_error():
    from repro.video.synthesis import SyntheticScene

    original = SyntheticScene.__dict__["frame"]
    tracer = LayerTracer(targets=(
        Target("ghost", "repro.codec.decoder:VopDecoder.no_such_method"),
        Target("ghost", "repro.no_such_module:decode"),
        Target("video", "repro.video.synthesis:SyntheticScene.frame"),
    ))
    tracer.install()
    try:
        assert tracer.absent_layers() == {"ghost"}
        assert SyntheticScene.__dict__["frame"] is not original
    finally:
        tracer.uninstall()
    assert SyntheticScene.__dict__["frame"] is original

    workload_run = run.WorkloadRun(WORKLOADS["serve_fleet"], 4, 1, {},
                                   Path("."), {})
    empty = {"region_ns": 1, "unattributed_ns": 0, "layers": {}}
    op = {"index": 0, "wall": 1.0, "layers": empty, "obs": None}
    workload_run._layers(
        [{"untraced": dict(op), "traced": dict(op)}],
        {"absent_layers": ["memsim"], "absent_targets": [],
         "setup_layers": empty},
    )
    assert workload_run.per_layer["memsim.share"] == "absent"
    assert workload_run.per_layer["codec.decoder.share"] == 0.0


def _reports(values: list[float], better: str = "lower") -> list[dict]:
    return [
        {"workloads": {"serve_fleet": {"metrics": {"op_s_p50": {
            "value": value, "unit": "s", "better": better, "bound": 0.10,
        }}}}}
        for value in values
    ]


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]


def test_compare_passes_identical_reports():
    rows, ok = compare.compare(_reports(STEADY), _reports(STEADY))
    assert ok and rows[0]["verdict"] == "same"


def test_compare_flags_a_fifteen_percent_slowdown(tmp_path):
    rows, ok = compare.compare(_reports(STEADY),
                               _reports([v * 1.15 for v in STEADY]))
    assert not ok and rows[0]["verdict"] == "worse"
    paths = {}
    for side, values in (("parent", STEADY), ("change", [v * 1.15 for v in STEADY])):
        paths[side] = []
        for index, report in enumerate(_reports(values)):
            path = tmp_path / f"{side}{index}.json"
            path.write_text(json.dumps(report))
            paths[side].append(str(path))
    assert compare.main(["--parent", *paths["parent"],
                         "--change", *paths["change"]]) == 1


def test_compare_marks_a_noisy_pair_unresolved():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    rows, ok = compare.compare(_reports(noisy), _reports(noisy[::-1]))
    assert ok and rows[0]["verdict"] == "unresolved"


def test_compare_fails_a_noisy_change_worse_on_every_run():
    noisy = [1.5, 2.6, 1.6, 2.4, 2.0, 1.55, 2.5, 1.8, 2.2, 2.0]
    rows, ok = compare.compare(_reports(STEADY), _reports(noisy))
    assert not ok and rows[0]["verdict"] == "worse"


def test_compare_fails_an_unresolved_row_whose_median_is_worse():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    rows, ok = compare.compare(_reports(noisy),
                               _reports([v * 1.15 for v in noisy]))
    assert rows[0]["verdict"] == "unresolved"
    assert not ok and rows[0]["fails"]


def test_compare_claim_needs_nine_tenths_of_pairs():
    faster = [v * 0.8 for v in STEADY]
    rows, ok = compare.compare(_reports(STEADY), _reports(faster),
                               claims=["serve_fleet:op_s_p50"])
    assert ok and rows[0]["claim_met"] and rows[0]["verdict"] == "better"
    mixed = faster[:8] + [v * 1.2 for v in STEADY[8:]]
    rows, ok = compare.compare(_reports(STEADY), _reports(mixed),
                               claims=["serve_fleet:op_s_p50"])
    assert not ok and not rows[0]["claim_met"]


def test_fails_without_the_program(tmp_path):
    """A tree holding only the benchmark exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
