"""One benchmark child process; ``bench/run.py`` spawns it, one per launch.

Modes (the first argument):

- ``build``: byte-compile ``src/`` and ``bench/``, build the native
  kernels, and print one JSON line with their status and the run
  provenance.  Run once before any other child, so set-up time does not
  include a first-run build.
- ``setup``: make the inputs and run the warm-up op, print ``READY``,
  exit.  Only the time to ``READY`` is used (the ``setup_s`` metric).
- ``measure``: as ``setup``, then run the ops untraced.
- ``traced``: install the layer tracer, set up (traced), then run each op
  twice -- untraced, then traced with obs spans recorded -- so tracing
  overhead and digest equality are measured in one process.
- ``oracle``: run op 0 cold, without warm-up; ``run.py`` launches it
  under ``REPRO_CODEC_ENGINE=reference``.

The ops' results go to the ``--result`` JSON file; stdout carries only
``READY`` (and the ``build`` line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import traceback
from pathlib import Path

from tracer import LayerTracer
from workloads import WORKLOADS, Clock

#: Span-buffer size for one traced op; far above what any op emits.
OBS_SPAN_LIMIT = 1 << 18


def _ready() -> None:
    print("READY", flush=True)


def _run_op(workload, state, index: int, region=None) -> dict:
    """One op; an exception marks it failed instead of ending the run."""
    clock = Clock(region)
    record = {"index": index}
    try:
        record.update(workload.op(state, index, clock))
    except Exception:  # a failed op is a measured outcome, not a crash
        record["error"] = traceback.format_exc(limit=8)
    record["wall"] = clock.wall
    record["phases"] = clock.phases
    return record


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DecodeSpans:
    """The program's own obs spans, recorded around each traced decode.

    Recording only inside decode calls keeps obs off everywhere else, so
    the service CLI publishes no telemetry of its own during a traced op.
    """

    def __init__(self) -> None:
        from repro import obs
        from repro.obs.report import aggregate_stages

        self._obs = obs
        self._aggregate = aggregate_stages
        self._records: list = []

    @contextlib.contextmanager
    def record(self):
        with self._obs.recording(limit=OBS_SPAN_LIMIT) as session:
            try:
                yield
            finally:
                self._records.extend(session.tracer.records())

    def take(self) -> dict:
        """Decode-stage times since the previous call (None: no span)."""
        rows = {row.name: row for row in self._aggregate(self._records)}
        self._records = []

        def ns(name: str, attr: str) -> int | None:
            row = rows.get(name)
            return getattr(row, attr) if row is not None else None

        return {
            "decode_ns": ns("codec.decode.sequence", "total_ns"),
            "vlc_parse_ns": ns("codec.decode.vlc_parse", "self_ns"),
            "reconstruct_ns": ns("codec.decode.reconstruct", "self_ns"),
        }


def _decode_spans() -> DecodeSpans | None:
    try:
        return DecodeSpans()
    except ImportError:
        return None


def _traced_op(workload, state, index: int, tracer: LayerTracer,
               spans: DecodeSpans | None) -> dict:
    record = _run_op(workload, state, index, tracer.region)
    record["layers"] = tracer.take()
    record["obs"] = spans.take() if spans is not None else None
    return record


def _build(root: Path) -> dict:
    import compileall
    import importlib

    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(root / "bench", quiet=1, maxlevels=0)
    kernels = {}
    for label, module, probe in (
        ("sad_kernel", "repro.codec.batched", "sad_kernel_available"),
        ("memsim_kernel", "repro.memsim.fastpath", "kernel_available"),
    ):
        try:
            kernels[label] = bool(getattr(importlib.import_module(module), probe)())
        except (ImportError, AttributeError):
            kernels[label] = "absent"
    try:
        from repro.provenance import run_metadata
        metadata = run_metadata()
    except ImportError:
        metadata = {}
    return {"kernels": kernels, "metadata": metadata}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/child.py")
    parser.add_argument("mode",
                        choices=("build", "setup", "measure", "traced", "oracle"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "build":
        print(json.dumps(_build(Path(__file__).resolve().parent.parent)))
        return 0

    workload = WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    if args.mode == "oracle":
        state = workload.setup(args.seed, 1, args.scratch)
        result["ops"] = [_run_op(workload, state, 0)]
    elif args.mode == "traced":
        spans = _decode_spans()
        tracer = LayerTracer(
            around={"codec.decoder": spans.record} if spans else None)
        tracer.install()
        with tracer.region("setup"):
            state = workload.setup(args.seed, args.ops, args.scratch)
            workload.warm(state, args.ops)
        result["setup_layers"] = tracer.take()
        if spans is not None:
            spans.take()
        _ready()
        # Pairs: the untraced twin gives trace_overhead and the digests
        # the traced op must reproduce.  Half the ops keep the traced
        # run about as long as the untraced one.
        pairs = []
        for index in range((args.ops + 1) // 2):
            untraced = _run_op(workload, state, index)
            traced = _traced_op(workload, state, index, tracer, spans)
            pairs.append({"untraced": untraced, "traced": traced})
        result["pairs"] = pairs
        result["absent_targets"] = tracer.absent
        result["absent_layers"] = sorted(tracer.absent_layers())
        tracer.uninstall()
        if args.trace_file is not None:
            tracer.write_chrome_trace(args.trace_file)
    else:
        state = workload.setup(args.seed, args.ops, args.scratch)
        workload.warm(state, args.ops)
        _ready()
        if args.mode == "setup":
            return 0
        result["ops"] = [_run_op(workload, state, index)
                         for index in range(args.ops)]
    result["peak_rss_mb"] = _peak_rss_mb()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
