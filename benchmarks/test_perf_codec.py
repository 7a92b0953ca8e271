"""Throughput benchmark for the batched codec engine.

Times full encode/decode passes under ``REPRO_CODEC_ENGINE=reference``
(per-macroblock Python loops) and ``=batched`` (frame-level kernels) on
the same QCIF sequence, verifies the bitstreams agree, and snapshots
frames/second plus the speedup to ``BENCH_codec.json`` at the
repository root.

Run standalone (writes the JSON unconditionally)::

    PYTHONPATH=src python benchmarks/test_perf_codec.py

or as a pytest perf smoke (asserts the batched engine actually pays)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_codec.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codec.batched import parse_kernel_available, sad_kernel_available
from repro.codec.bench import format_report, run_codec_benchmark
from repro.ioutil import atomic_write

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_codec.json"

#: Without the C kernels there is no batched engine to time: the codec
#: runs its reference engine only.
pytestmark = pytest.mark.skipif(
    not (sad_kernel_available() and parse_kernel_available()),
    reason="no C compiler to build the codec kernels",
)

#: The batched engine must beat the per-MB reference by at least this
#: much on encode (measured ~14x; the floor leaves slack for slow CI).
MIN_ENCODE_SPEEDUP = 3.0

#: The batched decode parses each macroblock row in one call and
#: reconstructs each VOP in one pass whose texture path (prediction,
#: B-VOP mix, dequantization, round-clip-store) runs in the plane kernel,
#: against the reference engine's Python parse and per-MB
#: reconstruction: 7.3-18.4x over 22 runs on a 2-vCPU Xeon KVM guest
#: whose speed drifts (median 11.8x).  The same decode with that texture
#: path in NumPy read 1.89-7.0x (median 4.4x), so the floor notices a
#: slip back to per-MB or NumPy work.
MIN_DECODE_SPEEDUP = 6.0


@pytest.fixture(scope="module")
def record() -> dict:
    result = run_codec_benchmark()
    atomic_write(RESULT_PATH, json.dumps(result, indent=2) + "\n")
    return result


class TestCodecPerfSmoke:
    def test_batched_encode_is_measurably_faster(self, record):
        assert record["encode_speedup"] >= MIN_ENCODE_SPEEDUP, format_report(record)

    def test_batched_decode_does_not_regress(self, record):
        assert record["decode_speedup"] >= MIN_DECODE_SPEEDUP, format_report(record)

    def test_record_is_complete(self, record):
        for engine in ("reference", "batched"):
            numbers = record["engines"][engine]
            assert numbers["encode_fps"] > 0
            assert numbers["decode_fps"] > 0
        assert record["bitstream_bytes"] > 0

    def test_record_carries_provenance(self, record):
        metadata = record["metadata"]
        assert metadata["git_sha"]
        assert metadata["hostname"]
        assert "REPRO_CODEC_ENGINE" in metadata["engine_knobs"]

    def test_decode_vlc_parse_share_recorded(self, record):
        """The decode split: the VLC parse's share of the batched
        decode, one span per macroblock row."""
        stages = record["decode_stages"]
        assert "codec.decode.vlc_parse" in stages
        assert 0.0 < stages["codec.decode.vlc_parse"] <= 1.0


def main() -> None:
    result = run_codec_benchmark()
    atomic_write(RESULT_PATH, json.dumps(result, indent=2) + "\n")
    print(format_report(result))
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
