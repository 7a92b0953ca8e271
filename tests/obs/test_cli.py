"""End-to-end ``repro profile`` / ``repro obs report`` acceptance tests.

This is the acceptance criterion from the issue, executed for real: a
profiled encode must leave a valid Chrome trace plus a stage table whose
self-time sum lands within 10% of the measured wall-clock.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.codec.batched import sad_kernel_available
from repro.obs.cli import obs_main, profile_main
from repro.obs.export import read_spans_jsonl
from repro.obs.report import aggregate_stages, roots_total_ns
from repro.obs.schema import validate_file

COVERAGE_TOLERANCE = 0.10

#: The span names of the batched engine, which a run without the plane
#: kernel does not use.
batched_spans = pytest.mark.skipif(
    not sad_kernel_available(), reason="no C compiler to build the plane kernel"
)


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    for env in (obs.OBS_ENV, obs.LIMIT_ENV, obs.PROC_ENV, obs.DIR_ENV):
        monkeypatch.delenv(env, raising=False)
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def encode_bundle(tmp_path_factory):
    """One shared `repro profile encode` run at the acceptance geometry."""
    out = tmp_path_factory.mktemp("profile") / "bundle"
    rc = profile_main(
        ["encode", "--width", "176", "--height", "144", "--frames", "8",
         "--out", str(out)]
    )
    assert rc == 0
    return out


class TestProfileEncode:
    def test_emits_all_three_artifacts(self, encode_bundle):
        for name in ("trace.jsonl", "trace.json", "metrics.json"):
            assert (encode_bundle / name).exists(), name

    def test_artifacts_pass_schema_validation(self, encode_bundle):
        for name in ("trace.jsonl", "trace.json", "metrics.json"):
            assert validate_file(encode_bundle / name) == [], name

    def test_chrome_trace_is_loadable_json(self, encode_bundle):
        doc = json.loads((encode_bundle / "trace.json").read_text())
        events = doc["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
        assert any(event["ph"] == "M" for event in events)

    def test_stage_sum_within_ten_percent_of_wall_clock(self, encode_bundle):
        meta, records = read_spans_jsonl(encode_bundle / "trace.jsonl")
        wall_ns = meta["wall_s"] * 1e9
        assert wall_ns > 0
        stage_sum = sum(r.self_ns for r in aggregate_stages(records))
        assert stage_sum == roots_total_ns(records)
        assert abs(stage_sum / wall_ns - 1.0) <= COVERAGE_TOLERANCE, (
            f"stages cover {stage_sum / wall_ns:.1%} of wall-clock"
        )

    def test_trace_meta_carries_provenance(self, encode_bundle):
        meta, _ = read_spans_jsonl(encode_bundle / "trace.jsonl")
        assert "git_sha" in meta and "hostname" in meta
        assert "engine_knobs" in meta

    @batched_spans
    def test_expected_encode_stages_present(self, encode_bundle):
        _, records = read_spans_jsonl(encode_bundle / "trace.jsonl")
        names = {r.name for r in records}
        assert "codec.encode.sequence" in names
        assert "codec.encode.dct_quant" in names
        assert "codec.encode.serialize" in names

    def test_recorder_left_disarmed(self, encode_bundle):
        assert not obs.enabled()


class TestProfileDecode:
    @batched_spans
    def test_decode_profile_names_the_vlc_parse_span(self, tmp_path, capsys):
        """Satellite 1's hinge: the parse share is a *named* span so the
        future C bit-reader has a baseline to beat."""
        out = tmp_path / "decode-bundle"
        rc = profile_main(
            ["decode", "--width", "96", "--height", "96", "--frames", "4",
             "--out", str(out)]
        )
        assert rc == 0
        _, records = read_spans_jsonl(out / "trace.jsonl")
        names = {r.name for r in records}
        assert "codec.decode.vlc_parse" in names
        assert "codec.decode.reconstruct" in names
        assert "codec.decode.vlc_parse" in capsys.readouterr().out


class TestObsReport:
    def test_report_reads_a_saved_trace(self, encode_bundle, capsys):
        rc = obs_main(["report", "--trace", str(encode_bundle / "trace.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "codec.encode" in out
        assert "boundedness" in out
        assert "compute-bound" in out or "memory-bound" in out

    def test_report_rejects_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(
            json.dumps({"schema": "repro-obs-trace", "version": 1}) + "\n"
        )
        assert obs_main(["report", "--trace", str(empty)]) == 1


class TestCliDispatch:
    def test_repro_cli_routes_profile_and_obs(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["profile", "--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--help"])
        assert exc.value.code == 0
