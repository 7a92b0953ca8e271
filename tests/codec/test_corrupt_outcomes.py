"""Pinned decode outcomes for a fixed corpus of corrupt streams.

A decoder fast path must reproduce, on damaged input, exactly what the
decoder did when the table was recorded: in strict mode the same
``BitstreamError`` subclass at the same ``bit_position``; in tolerant
mode the same clean/concealed verdict and byte-identical frames.  Clean
streams agreeing is not enough -- the error path is where a faster bit
reader, VLC lookup or reconstruction order would silently diverge.

The corpus is :class:`BitstreamFuzzer` cases over all seven mutation
kinds, applied to three small stream configurations (resync markers
with B-VOPs; no resync with M=1; data partitioning with RVLC), plus a
few hand-picked cases that exercise rare decoder paths: a P-VOP whose
damaged display index makes it predict from its own frame store, a
resync marker carrying ``qp = 0``, and rows concealed after they had
decoded.  Both codec engines are pinned, and since their macroblock
parse has one parser of record (the batched engine's C row parser hands
every row it cannot finish back to it) they must also agree with each
other.  Where the plane kernel cannot be built, only the reference
engine replays.

Re-record only when a change is *meant* to alter decode outcomes::

    PYTHONPATH=src python -m tests.codec.test_corrupt_outcomes
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.codec.engine import ENGINE_BATCHED, ENGINE_REFERENCE
from repro.codec.errors import BitstreamError
from repro.conformance.fuzzer import MUTATIONS, BitstreamFuzzer, FuzzCase
from repro.video import SceneSpec, SyntheticScene

from .conftest import pinned_engine

TABLE = Path(__file__).with_name("corrupt_outcomes.json")

WIDTH, HEIGHT, N_FRAMES = 64, 48, 7
CASES_PER_CONFIG = 35  # five per mutation kind
FUZZ_SEED = 14

CONFIGS = {
    "resync": dict(qp=8, gop_size=6, m_distance=3, resync_markers=True),
    "plain_m1": dict(qp=8, gop_size=4, m_distance=1),
    "dp_rvlc": dict(
        qp=8, gop_size=4, m_distance=1, resync_markers=True,
        data_partitioning=True, reversible_vlc=True,
    ),
}

#: Cases whose damaged display index makes a P-VOP predict from the
#: frame store it is writing.  The reference engine rebuilds each
#: macroblock as soon as it is parsed, so later macroblocks of a row
#: predict from earlier ones; the batched engine rebuilds the row at
#: once, from the store as it stood before the row.  Their tolerant
#: frames differ in the concealed pixels; nothing else does.
SELF_REFERENCING_CASES: list[tuple[str, int, str]] = [
    ("plain_m1", 3214466863439, "burst"),
    ("plain_m1", 139518505060110, "bitflip"),
    ("plain_m1", 19791727917557, "arith"),
    ("plain_m1", 186401205928058, "burst"),
]

#: Hand-picked ``(config, seed, mutation)`` cases that reach rare paths.
EXTRA_CASES: list[tuple[str, int, str]] = [
    # A resync marker with qp 0, and rows concealed after they decoded
    # (a damaged marker sent the row loop back to an earlier row).
    ("resync", 277923541679480, "bitflip"),
    ("resync", 159956864535882, "arith"),
    ("resync", 10324411169851, "arith"),
] + SELF_REFERENCING_CASES

ENGINES = (ENGINE_BATCHED, ENGINE_REFERENCE)


def _pristine_streams() -> dict[str, bytes]:
    """The three streams, as either engine writes them."""
    scene = SyntheticScene(SceneSpec.default(WIDTH, HEIGHT))
    frames = [scene.frame(index) for index in range(N_FRAMES)]
    return {
        name: VopEncoder(CodecConfig(WIDTH, HEIGHT, **options))
        .encode_sequence(frames)
        .data
        for name, options in CONFIGS.items()
    }


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def decode_result(data: bytes, tolerant: bool) -> tuple[str, list]:
    """``(outcome, vop_stats)``; the outcome is ``<Error>@<bit>`` (with
    no statistics) or ``clean|concealed:<sha256 of the frames>``."""
    try:
        decoded = VopDecoder().decode_sequence(data, tolerate_errors=tolerant)
    except BitstreamError as error:
        return f"{type(error).__name__}@{error.bit_position}", []
    frames = b"".join(
        plane.tobytes()
        for frame in decoded.frames
        for plane in (frame.y, frame.u, frame.v)
    )
    verdict = "clean" if decoded.is_clean else "concealed"
    return f"{verdict}:{_sha256(frames)}", decoded.vop_stats


def decode_outcome(data: bytes, tolerant: bool) -> str:
    return decode_result(data, tolerant)[0]


def _corpus() -> list[tuple[str, FuzzCase]]:
    cases = [
        (name, case)
        for name in CONFIGS
        for case in BitstreamFuzzer(FUZZ_SEED).cases(CASES_PER_CONFIG)
    ]
    cases += [(name, FuzzCase(seed, mutation)) for name, seed, mutation in EXTRA_CASES]
    return cases


def record() -> dict:
    """The outcome table of the decoder as it stands."""
    streams = _pristine_streams()
    rows = []
    for name, case in _corpus():
        corrupt = case.apply(streams[name])
        outcomes = {}
        for engine in ENGINES:
            with pinned_engine(engine):
                outcomes[engine] = {
                    "strict": decode_outcome(corrupt, tolerant=False),
                    "tolerant": decode_outcome(corrupt, tolerant=True),
                }
        rows.append(
            {"config": name, "seed": case.seed, "mutation": case.mutation,
             "outcomes": outcomes}
        )
    return {
        "geometry": [WIDTH, HEIGHT, N_FRAMES],
        "streams": {name: _sha256(data) for name, data in streams.items()},
        "cases": rows,
    }


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def streams(table) -> dict[str, bytes]:
    streams = _pristine_streams()
    recorded = {name: _sha256(data) for name, data in streams.items()}
    assert recorded == table["streams"], (
        "the encoder's output changed, so the pinned corpus no longer "
        "describes these streams; re-record the table deliberately"
    )
    return streams


def test_corpus_covers_every_mutation_kind_per_config(table):
    for name in CONFIGS:
        kinds = {row["mutation"] for row in table["cases"] if row["config"] == name}
        assert kinds == set(MUTATIONS)


def test_corpus_reaches_errors_and_concealment(table):
    outcomes = [
        row["outcomes"][ENGINE_BATCHED][mode]
        for row in table["cases"]
        for mode in ("strict", "tolerant")
    ]
    assert any("@" in outcome for outcome in outcomes)
    assert any(outcome.startswith("concealed:") for outcome in outcomes)


@pytest.mark.parametrize("engine", ENGINES)
def test_replay_matches_pinned_outcomes(table, streams, engine):
    mismatches = []
    with pinned_engine(engine):
        for row in table["cases"]:
            case = FuzzCase(row["seed"], row["mutation"])
            corrupt = case.apply(streams[row["config"]])
            for mode in ("strict", "tolerant"):
                expected = row["outcomes"][engine][mode]
                actual = decode_outcome(corrupt, tolerant=mode == "tolerant")
                if actual != expected:
                    mismatches.append(
                        f"{row['config']} {case} {mode}: {actual} != {expected}"
                    )
    assert not mismatches, "\n".join(mismatches)


def test_engines_agree(table, streams):
    """Same strict error and bit, same tolerant statistics, and the same
    tolerant frames except where a P-VOP predicts from its own store."""
    self_referencing = {(name, seed) for name, seed, _ in SELF_REFERENCING_CASES}
    mismatches = []
    for row in table["cases"]:
        case = FuzzCase(row["seed"], row["mutation"])
        corrupt = case.apply(streams[row["config"]])
        results = []
        for engine in ENGINES:
            with pinned_engine(engine):
                results.append((
                    decode_outcome(corrupt, tolerant=False),
                    *decode_result(corrupt, tolerant=True),
                ))
        (strict, frames, stats), (ref_strict, ref_frames, ref_stats) = results
        label = f"{row['config']} {case}"
        if strict != ref_strict:
            mismatches.append(f"{label} strict: {strict} != {ref_strict}")
        if stats != ref_stats:
            mismatches.append(f"{label}: tolerant vop_stats differ")
        known = (row["config"], row["seed"]) in self_referencing
        if frames != ref_frames and not known:
            mismatches.append(f"{label} tolerant: {frames} != {ref_frames}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {TABLE}")
