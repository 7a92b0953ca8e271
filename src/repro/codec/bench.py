"""Codec engine throughput benchmark: batched kernels vs per-MB reference.

Times full encode and decode passes over a synthetic QCIF-class sequence
under both values of ``REPRO_CODEC_ENGINE`` and reports frames/second
plus the batched/reference speedup.  The two engines produce bit-exact
bitstreams (enforced here as a sanity check, and exhaustively by
``tests/codec/test_engine_differential.py``), so the ratio isolates pure
execution efficiency -- the paper's question of how much a general
purpose architecture leaves on the table when the codec is expressed as
scalar per-macroblock loops.

Used by ``repro bench codec`` and ``benchmarks/test_perf_codec.py``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.codec.batched import sad_kernel_available
from repro.codec.decoder import VopDecoder
from repro.codec.encoder import VopEncoder
from repro.codec.types import CodecConfig
from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV, ENGINE_REFERENCE

#: Benchmark sequence geometry: QCIF, the paper's smallest study size.
WIDTH, HEIGHT = 176, 144
N_FRAMES = 8
REPEATS = 3


@contextmanager
def engine_env(engine: str):
    """Temporarily pin ``REPRO_CODEC_ENGINE``."""
    previous = os.environ.get(ENGINE_ENV)
    os.environ[ENGINE_ENV] = engine
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous


def _frames(n_frames: int, width: int, height: int):
    from repro.video import SceneSpec, SyntheticScene

    scene = SyntheticScene(SceneSpec.default(width, height))
    return [scene.frame(i) for i in range(n_frames)]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_codec_benchmark(
    width: int = WIDTH,
    height: int = HEIGHT,
    n_frames: int = N_FRAMES,
    repeats: int = REPEATS,
    qp: int = 8,
    gop_size: int = 4,
    m_distance: int = 2,
) -> dict:
    """Time encode/decode under both engines; return the result record."""
    if not sad_kernel_available():
        # Fail before timing the reference engine, not after it.
        raise RuntimeError(
            "the codec benchmark times the batched engine, which needs a C "
            "compiler (cc/gcc/clang) to build its plane kernel"
        )
    frames = _frames(n_frames, width, height)
    config = CodecConfig(width, height, qp=qp, gop_size=gop_size, m_distance=m_distance)

    results: dict[str, dict] = {}
    streams: dict[str, bytes] = {}
    for engine in (ENGINE_REFERENCE, ENGINE_BATCHED):
        with engine_env(engine):
            encoded = VopEncoder(config).encode_sequence(frames)
            streams[engine] = encoded.data
            encode_seconds = _best_of(
                lambda: VopEncoder(config).encode_sequence(frames), repeats
            )
            decode_seconds = _best_of(
                lambda: VopDecoder().decode_sequence(encoded.data), repeats
            )
        results[engine] = {
            "encode_seconds": encode_seconds,
            "decode_seconds": decode_seconds,
            "encode_fps": n_frames / encode_seconds,
            "decode_fps": n_frames / decode_seconds,
        }
    if streams[ENGINE_REFERENCE] != streams[ENGINE_BATCHED]:
        raise AssertionError("engines disagree on the bitstream; benchmark is invalid")

    reference = results[ENGINE_REFERENCE]
    batched = results[ENGINE_BATCHED]
    from repro.provenance import run_metadata

    return {
        "config": {
            "width": width,
            "height": height,
            "n_frames": n_frames,
            "repeats": repeats,
            "qp": qp,
            "gop_size": gop_size,
            "m_distance": m_distance,
        },
        "bitstream_bytes": len(streams[ENGINE_BATCHED]),
        "engines": results,
        "encode_speedup": reference["encode_seconds"] / batched["encode_seconds"],
        "decode_speedup": reference["decode_seconds"] / batched["decode_seconds"],
        "decode_stages": decode_stage_shares(streams[ENGINE_BATCHED]),
        "metadata": run_metadata(),
    }


def decode_stage_shares(data: bytes) -> dict:
    """Per-stage share of one traced decode pass over ``data``.

    Decode splits into the sequential VLC parse (the entropy decode the
    paper frames as the MPEG-specific bottleneck) and reconstruction;
    recording both shares as named benchmark fields gives any change to
    either a before/after baseline in ``BENCH_codec.json``.
    """
    from repro import obs
    from repro.obs.report import aggregate_stages, roots_total_ns

    with obs.recording() as session:
        VopDecoder().decode_sequence(data)
        records = session.tracer.records()
    rows = aggregate_stages(records)
    wall = roots_total_ns(records)
    return {
        row.name: round(row.self_ns / wall, 4) if wall else 0.0
        for row in rows
    }


def format_report(record: dict) -> str:
    lines = [
        "codec engine benchmark "
        f"({record['config']['width']}x{record['config']['height']}, "
        f"{record['config']['n_frames']} frames)"
    ]
    for engine, numbers in record["engines"].items():
        lines.append(
            f"  {engine:>9}: encode {numbers['encode_fps']:6.2f} fps, "
            f"decode {numbers['decode_fps']:6.2f} fps"
        )
    lines.append(
        f"  speedup: encode {record['encode_speedup']:.2f}x, "
        f"decode {record['decode_speedup']:.2f}x (batched vs reference)"
    )
    return "\n".join(lines)


def bench_main(argv: list[str] | None = None) -> int:
    """``repro bench codec`` entry point."""
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("target", choices=("codec",), help="benchmark to run")
    parser.add_argument("--frames", type=int, default=N_FRAMES)
    parser.add_argument("--width", type=int, default=WIDTH)
    parser.add_argument("--height", type=int, default=HEIGHT)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write the record to PATH"
    )
    args = parser.parse_args(argv)
    record = run_codec_benchmark(
        width=args.width,
        height=args.height,
        n_frames=args.frames,
        repeats=args.repeats,
    )
    print(format_report(record))
    if args.json:
        from repro.ioutil import atomic_write

        atomic_write(args.json, json.dumps(record, indent=2) + "\n")
    return 0
