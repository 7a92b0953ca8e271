"""``repro profile`` and ``repro obs`` command-line front ends.

``repro profile <target>`` runs an existing workload under the span
recorder and leaves a complete telemetry bundle behind::

    repro profile encode --width 176 --height 144 --frames 8
    repro profile decode --frames 8
    repro profile study --grid tiny --scale quick
    repro profile bench

Each run writes, under ``--out`` (default ``obs-profile/``):

- ``trace.jsonl`` -- the canonical span trace (meta header + one span
  per line);
- ``trace.json`` -- the same spans as a Chrome trace, loadable directly
  in ``chrome://tracing`` or https://ui.perfetto.dev;
- ``metrics.json`` -- the metrics-registry snapshot;

and prints the per-stage cost table with wall-clock coverage.

``repro obs report`` re-aggregates a saved trace, optionally joining a
freshly simulated memory hierarchy (``--memsim``) to classify each stage
compute-bound / memory-bound / parse-bound in the paper's terms.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro import obs
from repro.obs.export import (
    export_chrome_trace,
    export_metrics_json,
    export_spans_jsonl,
    merge_parts,
    read_spans_jsonl,
)
from repro.obs.report import (
    aggregate_stages,
    boundedness_report,
    format_stage_table,
)
from repro.provenance import run_metadata

__all__ = ["profile_main", "obs_main"]

DEFAULT_OUT = "obs-profile"


def _export_bundle(out_dir: Path, records, snapshot: dict, wall_s: float) -> dict:
    meta = dict(run_metadata(), wall_s=round(wall_s, 6))
    export_spans_jsonl(out_dir / "trace.jsonl", records, meta)
    export_chrome_trace(out_dir / "trace.json", records, meta)
    export_metrics_json(out_dir / "metrics.json", snapshot, meta)
    return meta


def _print_table(records, wall_s: float) -> None:
    rows = aggregate_stages(records)
    print(format_stage_table(rows, wall_s))


# -- profile targets ----------------------------------------------------------


def _profile_codec(args, direction: str):
    from repro.codec.decoder import VopDecoder
    from repro.codec.encoder import VopEncoder
    from repro.codec.types import CodecConfig
    from repro.video import SceneSpec, SyntheticScene

    scene = SyntheticScene(SceneSpec.default(args.width, args.height))
    frames = [scene.frame(i) for i in range(args.frames)]
    config = CodecConfig(
        args.width, args.height, qp=args.qp, gop_size=args.gop,
        m_distance=args.m_distance,
    )
    encoded = VopEncoder(config).encode_sequence(frames)
    with obs.recording() as session:
        start = time.perf_counter()
        if direction == "encode":
            VopEncoder(config).encode_sequence(frames)
        else:
            VopDecoder().decode_sequence(encoded.data)
        wall_s = time.perf_counter() - start
        records = session.tracer.records()
        snapshot = session.registry.snapshot()
    return records, snapshot, wall_s


def _profile_bench(args):
    from repro.codec.bench import run_codec_benchmark

    with obs.recording() as session:
        start = time.perf_counter()
        run_codec_benchmark(
            width=args.width, height=args.height,
            n_frames=args.frames, repeats=1,
        )
        wall_s = time.perf_counter() - start
        records = session.tracer.records()
        snapshot = session.registry.snapshot()
    return records, snapshot, wall_s


def _profile_study(args, spool: Path):
    from repro.core.runner.orchestrator import run_study

    # Workers are separate processes: they resolve the obs session from
    # the environment and flush part files into the spool on completion.
    saved = {
        key: os.environ.get(key)
        for key in (obs.OBS_ENV, obs.DIR_ENV, obs.PROC_ENV)
    }
    os.environ[obs.OBS_ENV] = "on"
    os.environ[obs.DIR_ENV] = str(spool)
    try:
        with obs.recording() as session:
            start = time.perf_counter()
            outcome = run_study(
                grid=args.grid, scale=args.scale, jobs=args.jobs,
                runs_dir=args.runs_dir,
            )
            wall_s = time.perf_counter() - start
            session.registry.absorb_study_telemetry(outcome.telemetry)
            records = list(session.tracer.records())
            snapshot = session.registry.snapshot()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    part_records, part_snapshots = merge_parts(spool)
    records.extend(part_records)
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    merged.merge_snapshot(snapshot)
    for part in part_snapshots:
        merged.merge_snapshot(part)
    return records, merged.snapshot(), wall_s


def profile_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run a workload under the telemetry recorder.",
    )
    parser.add_argument(
        "target", choices=("encode", "decode", "bench", "study"),
        help="what to run under the recorder",
    )
    parser.add_argument("--width", type=int, default=176)
    parser.add_argument("--height", type=int, default=144)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--qp", type=int, default=8)
    parser.add_argument("--gop", type=int, default=4)
    parser.add_argument("--m-distance", type=int, default=2)
    parser.add_argument("--grid", default="tiny", help="study grid (study target)")
    parser.add_argument("--scale", default="quick", help="study scale (study target)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--runs-dir", default=None)
    parser.add_argument(
        "--out", default=DEFAULT_OUT, metavar="DIR",
        help=f"telemetry bundle directory (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.target in ("encode", "decode"):
        records, snapshot, wall_s = _profile_codec(args, args.target)
    elif args.target == "bench":
        records, snapshot, wall_s = _profile_bench(args)
    else:
        records, snapshot, wall_s = _profile_study(args, out_dir / "parts")
    if not records:
        print("no spans recorded; nothing to export")
        return 1
    _export_bundle(out_dir, records, snapshot, wall_s)
    print(f"profile {args.target}: {len(records)} spans, {wall_s:.3f}s wall")
    _print_table(records, wall_s)
    print(
        f"\nwrote {out_dir / 'trace.jsonl'}, {out_dir / 'trace.json'} "
        f"(chrome://tracing / Perfetto), {out_dir / 'metrics.json'}"
    )
    return 0


# -- obs report ---------------------------------------------------------------


def _probe_hierarchy(width: int, height: int, n_frames: int, direction: str):
    """Run one small *instrumented* codec pass into a simulated hierarchy.

    This is the memsim side of the join: the span trace answers "where
    did the wall-clock go", the replayed hierarchy answers "what was the
    memory system doing during each phase".
    """
    from repro.core.machines import STUDY_MACHINES
    from repro.core.study import Workload, _record_decode, _record_encode, encode_untraced

    workload = Workload(
        name="obs-probe", width=width, height=height, n_frames=n_frames
    )
    if direction == "encode":
        recorded = _record_encode(workload, None, None)
    else:
        recorded = _record_decode(workload, encode_untraced(workload), None)
    hierarchy = STUDY_MACHINES[0].build_hierarchy()
    hierarchy.replay(recorded.batches)
    return hierarchy


def obs_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Aggregate and report saved telemetry.",
    )
    parser.add_argument("command", choices=("report",))
    parser.add_argument(
        "--trace", required=True, metavar="PATH",
        help="a trace.jsonl produced by `repro profile`",
    )
    parser.add_argument(
        "--memsim", action="store_true",
        help="join a freshly simulated hierarchy for boundedness calls",
    )
    parser.add_argument("--probe-width", type=int, default=64)
    parser.add_argument("--probe-height", type=int, default=64)
    parser.add_argument("--probe-frames", type=int, default=3)
    args = parser.parse_args(argv)

    meta, records = read_spans_jsonl(args.trace)
    if not records:
        print("trace holds no spans")
        return 1
    rows = aggregate_stages(records)
    wall_s = meta.get("wall_s")
    print(f"trace: {args.trace} ({len(records)} spans)")
    if meta.get("git_sha"):
        print(f"recorded at {meta['git_sha'][:12]} on {meta.get('hostname', '?')}")
    print()
    print(format_stage_table(rows, wall_s))

    hierarchy = None
    if args.memsim:
        direction = (
            "decode"
            if any(row.name.startswith("codec.decode") for row in rows)
            else "encode"
        )
        print(
            f"\nsimulating {direction} probe "
            f"({args.probe_width}x{args.probe_height}, "
            f"{args.probe_frames} frames) for the memsim join..."
        )
        hierarchy = _probe_hierarchy(
            args.probe_width, args.probe_height, args.probe_frames, direction
        )
    print("\nboundedness (paper Sections 4-6, our pipeline):")
    for name, verdict, miss_rate in boundedness_report(rows, hierarchy):
        detail = f"  (L1 miss rate {miss_rate:.2%})" if miss_rate is not None else ""
        print(f"  {name:<36} {verdict}{detail}")
    return 0
