"""The benchmark's four workloads: inputs made from a seed, one timed op each.

Each op is a user-facing unit of work, run closed-loop (the next op
starts when the previous one ends) by a single process on the ``serial``
backend.  An op returns its input key, the digests of everything it
produced, and the work it did; it raises :class:`OpFailed` when an
output breaks an invariant.  Only the code inside ``clock.phase(...)``
is timed, so verification and clean-up never count as op time.

Why these four (each stresses different layers, and each service-level
optimisation has one workload that uses it and one that bypasses it):

- ``serve_fleet``: decode is ~90 % of the op, 806 of 1000 sessions
  are shed (the admission ladder runs saturated), and only ~9 distinct
  received streams appear among ~194 decodes -- the duplicate work a
  decode memo or a faster parser would remove.
- ``fault_abr``: the same session and codec layers used differently --
  retries re-deliver on fresh channel seeds, ABR decodes 8-frame
  renditions including the half-res rung; the recovery simulation,
  breaker and ABR controller do more work here than anywhere else.
- ``codec_qcif``: the cold codec.  Every op encodes, decodes and
  tolerant-decodes a fuzzed copy of a *distinct* 30-frame QCIF
  sequence, so no input repeats and a memo cannot flatter it; it also
  drives the decoder's error path through all seven mutation kinds.
- ``study_cell``: the paper's traced reference path (Table 2 encode and
  Table 3 decode cell, 720x576, quick scale): reference full search and
  memsim replay dominate; the service caches and batched decoder barely
  matter.  Its input does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["OpFailed", "Clock", "Workload", "WORKLOADS", "REFERENCE_EXEMPT"]

#: Digests the reference-engine oracle does not compare.  On a corrupt
#: stream the two engines agree on the outcome class (and error bit
#: position) but not always on concealed pixels: with seed 4, op 0's
#: bitflip copy decodes three B-frames after a concealed run differently.
#: These digests are still checked against expected.json and the traced
#: twin, which run the same engine.
REFERENCE_EXEMPT = frozenset({"corrupt_frames"})


class OpFailed(Exception):
    """An op exited non-zero or produced output that breaks an invariant."""


class Clock:
    """Accumulates the timed phases of one op.

    ``region`` (a context-manager factory) wraps each phase; the traced
    run passes the tracer's region so exactly the timed code is traced.
    """

    def __init__(self, region: Callable | None = None) -> None:
        self.phases: dict[str, float] = {}
        self._region = region or contextlib.nullcontext

    @contextlib.contextmanager
    def phase(self, name: str):
        with self._region():
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.phases[name] = self.phases.get(name, 0.0) + elapsed

    @property
    def wall(self) -> float:
        return sum(self.phases.values())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Ops in a ledger run (no ``--seconds``): both commits do this work.
    default_ops: int
    #: Op wall time at the commit that defined the benchmark; a run of
    #: ``--seconds S`` does ``round(S / nominal_op_s)`` ops, a fixed
    #: count, so a faster commit does the same work in less time.
    nominal_op_s: float
    #: Whether the op inputs depend on the seed.
    seeded: bool
    setup: Callable  # (seed, n_ops, scratch) -> state
    op: Callable  # (state, index, clock) -> {"key", "digests", "work"}
    #: Lazy set-up before timing; default: one op past the measured range.
    warmup: Callable | None = None

    def ops_for(self, seconds: float | None) -> int:
        if seconds is None:
            return self.default_ops
        return max(1, round(seconds / self.nominal_op_s))

    def warm(self, state, n_ops: int) -> None:
        if self.warmup is not None:
            self.warmup(state)
        else:
            self.op(state, n_ops, Clock())


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# -- service workloads: the real CLI, in-process -----------------------------


@dataclass
class ServiceState:
    seed: int
    scratch: Path
    runs: int = 0

    def runs_dir(self, index: int) -> Path:
        """A fresh runs root per call: an op may run twice (traced run)."""
        self.runs += 1
        return self.scratch / f"op{index}-{self.runs}"


def _service_setup(seed: int, n_ops: int, scratch: Path) -> ServiceState:
    return ServiceState(seed, scratch)


def _repro(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise OpFailed(f"repro {argv[0]} exited {code}")


def _cli_args(study: str, seed: int, runs: Path, *extra: str) -> list[str]:
    return [study, *extra, "--seed", str(seed), "--backend", "serial",
            "--verify-complete", "--runs-dir", str(runs), "--run-id", study]


def _first_row(runs: Path, study: str) -> dict:
    summary = json.loads((runs / study / "summary.json").read_text())
    if summary["missing_cells"] or len(summary["rows"]) != 1:
        raise OpFailed(f"{study}: expected one published row")
    return summary["rows"][0]


def _check_conserved(study: str, offered: int, buckets: dict) -> None:
    if offered != sum(buckets.values()):
        raise OpFailed(
            f"{study}: offered {offered} != sum of outcome buckets {buckets}"
        )


def _serve_op(state: ServiceState, index: int, clock: Clock) -> dict:
    fleet_seed = state.seed + index
    runs = state.runs_dir(index)
    with clock.phase("serve"):
        _repro(*_cli_args("serve", fleet_seed, runs, "--sessions", "1000"))
    row = _first_row(runs, "serve")
    shutil.rmtree(runs)
    _check_conserved("serve", row["offered"],
                     {key: row[key] for key in ("served", "degraded", "shed")})
    return {
        "key": str(fleet_seed),
        "digests": {"serve": row["fleet_digests"]},
        "work": {"sessions": row["served"] + row["degraded"]},
    }


def _delivered(outcomes: dict) -> int:
    return outcomes["offered"] - outcomes["shed"] - outcomes["quarantined"]


def _fault_abr_op(state: ServiceState, index: int, clock: Clock) -> dict:
    fleet_seed = state.seed + index
    runs = state.runs_dir(index)
    with clock.phase("faultstudy"):
        _repro(*_cli_args("faultstudy", fleet_seed, runs, "--sessions", "64",
                          "--intensity", "0.6", "--policy", "full"))
    with clock.phase("abrstudy"):
        _repro(*_cli_args("abrstudy", fleet_seed, runs, "--sessions", "64",
                          "--bandwidth", "16", "--profile", "step_drop",
                          "--policy", "hybrid"))
    rows = {study: _first_row(runs, study) for study in ("faultstudy", "abrstudy")}
    shutil.rmtree(runs)
    for study, row in rows.items():
        outcomes = row["outcomes"]
        _check_conserved(study, outcomes["offered"],
                         {k: v for k, v in outcomes.items() if k != "offered"})
    return {
        "key": str(fleet_seed),
        "digests": {study: row["fleet_digests"] for study, row in rows.items()},
        "work": {"sessions": sum(_delivered(row["outcomes"])
                                 for row in rows.values())},
    }


# -- codec_qcif: cold encode / decode / tolerant decode ----------------------

QCIF = (176, 144)
QCIF_FRAMES = 30


@dataclass
class CodecState:
    seed: int
    config: object
    sequences: list  # per op index: list of YuvFrame
    cases: list  # per op index: FuzzCase


def _background_seed(seed: int, index: int) -> int:
    return seed * 10_007 + index


def _codec_setup(seed: int, n_ops: int, scratch: Path) -> CodecState:
    from repro.codec import CodecConfig
    from repro.conformance.fuzzer import BitstreamFuzzer
    from repro.video.synthesis import SceneSpec, SyntheticScene

    width, height = QCIF
    objects = SceneSpec.default(width, height).objects
    sequences = []
    for index in range(n_ops + 1):  # index n_ops is the warm-up input
        scene = SyntheticScene(SceneSpec(
            width, height, objects,
            background_seed=_background_seed(seed, index),
        ))
        sequences.append([scene.frame(i) for i in range(QCIF_FRAMES)])
    config = CodecConfig(width, height, qp=10, gop_size=12, m_distance=3,
                         resync_markers=True)
    # Mutation kinds round-robin through the 7-kind taxonomy by index.
    cases = BitstreamFuzzer(seed).cases(n_ops + 1)
    return CodecState(seed, config, sequences, cases)


def _frames_digest(frames) -> str:
    return _sha256(b"".join(
        plane.tobytes() for frame in frames
        for plane in (frame.y, frame.u, frame.v)
    ))


def _same_frames(left, right) -> bool:
    return len(left) == len(right) and all(
        a.y.tobytes() == b.y.tobytes() and a.u.tobytes() == b.u.tobytes()
        and a.v.tobytes() == b.v.tobytes()
        for a, b in zip(left, right)
    )


def _tolerant_decode(data: bytes) -> tuple[str, object]:
    """``(outcome class, decoded sequence or None)`` of a tolerant decode.

    The class is ``decoded``, ``concealed``, or the ``BitstreamError``
    subclass with its bit position.
    """
    from repro.codec import VopDecoder
    from repro.codec.errors import BitstreamError

    try:
        decoded = VopDecoder().decode_sequence(data, tolerate_errors=True)
    except BitstreamError as error:
        return f"{type(error).__name__}@{error.bit_position}", None
    return ("decoded" if decoded.is_clean else "concealed"), decoded


def _codec_op(state: CodecState, index: int, clock: Clock) -> dict:
    from repro.codec import VopDecoder, VopEncoder

    frames = state.sequences[index]
    with clock.phase("encode"):
        encoded = VopEncoder(state.config).encode_sequence(frames)
    with clock.phase("decode"):
        decoded = VopDecoder().decode_sequence(encoded.data)
    if not _same_frames(decoded.frames, encoded.reconstructions):
        raise OpFailed("decoded frames differ from the encoder's reconstructions")
    case = state.cases[index]
    corrupt = case.apply(encoded.data)
    with clock.phase("corrupt"):
        outcome, concealed = _tolerant_decode(corrupt)
    return {
        "key": f"{state.seed}:{index}",
        "digests": {
            "bitstream": _sha256(encoded.data),
            "frames": _frames_digest(decoded.frames),
            "corrupt": f"{case.mutation}:{outcome}",
            "corrupt_frames": _frames_digest(concealed.frames)
            if concealed is not None else "-",
        },
        "work": {"frames": len(frames), "corrupt_decodes": 1},
    }


# -- study_cell: the paper's traced reference path ---------------------------

STUDY_CELL = (720, 576)


def _study_setup(seed: int, n_ops: int, scratch: Path) -> None:
    return None


def _study_warmup(state) -> None:
    from repro.core.experiments import ExperimentScale, StudyRunner

    runner = StudyRunner(ExperimentScale("bench-warmup", 2, 0.5))
    runner.encode(*QCIF)
    runner.decode(*QCIF)


def _counters_digest(result) -> str:
    counters = {label: dataclasses.asdict(total)
                for label, total in result.raw_counters.items()}
    return _sha256(json.dumps(counters, sort_keys=True).encode())


def _study_op(state, index: int, clock: Clock) -> dict:
    from repro.core.experiments import SCALES, StudyRunner

    runner = StudyRunner(SCALES["quick"])
    with clock.phase("cell"):
        encode = runner.encode(*STUDY_CELL)
        decode = runner.decode(*STUDY_CELL)
    return {
        "key": "720x576-1vo-1l-quick",
        "digests": {"encode": _counters_digest(encode),
                    "decode": _counters_digest(decode)},
        "work": {"cells": 2},
    }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "serve_fleet",
            "1000-session serve: decode-bound, saturated admission, "
            "~9 distinct streams in ~194 decodes (memo/parser path)",
            default_ops=30, nominal_op_s=0.75, seeded=True,
            setup=_service_setup, op=_serve_op,
        ),
        Workload(
            "fault_abr",
            "faultstudy + abrstudy: retries, breaker and ABR controller "
            "drive the same session and codec layers differently",
            default_ops=32, nominal_op_s=0.55, seeded=True,
            setup=_service_setup, op=_fault_abr_op,
        ),
        Workload(
            "codec_qcif",
            "cold QCIF encode, decode and fuzzed tolerant decode: no input "
            "repeats, so caches and memos are bypassed",
            default_ops=30, nominal_op_s=0.72, seeded=True,
            setup=_codec_setup, op=_codec_op,
        ),
        Workload(
            "study_cell",
            "Table 2/3 cell at 720x576: reference full search and memsim "
            "replay, the paper's traced path",
            default_ops=3, nominal_op_s=11.5, seeded=False,
            setup=_study_setup, op=_study_op, warmup=_study_warmup,
        ),
    )
}
