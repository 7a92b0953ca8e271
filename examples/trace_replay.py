#!/usr/bin/env python3
"""Capture a workload trace once, replay it through what-if machines.

Cache miss counts are properties of the address stream, so architectural
what-ifs (cache sizes, extra levels, future platforms) don't need the
codec re-run: capture the trace, then replay it through any hierarchy --
including the N-level engine with the paper's IA32/IA64/Power4 models.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.codec import CodecConfig, VopEncoder
from repro.core.machines import SGI_O2
from repro.core.platforms import EXTENDED_PLATFORMS
from repro.trace import TraceCapture, TraceRecorder, replay_trace
from repro.video import SceneSpec, SyntheticScene


def main() -> None:
    width, height, n_frames = 176, 144, 4
    scene = SyntheticScene(SceneSpec.default(width, height))
    frames = [scene.frame(i) for i in range(n_frames)]
    config = CodecConfig(width, height, qp=8, gop_size=4, m_distance=2)

    capture = TraceCapture()
    recorder = TraceRecorder([capture])
    VopEncoder(config, recorder).encode_sequence(frames)
    print(f"captured {capture.n_events:,} line events from a "
          f"{width}x{height} encode")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "encode.npz"
        capture.save(path)
        print(f"saved trace: {path.stat().st_size / 1024:.0f} KB compressed\n")

        # What-if 1: the paper's SGI O2.
        o2 = SGI_O2.build_hierarchy()
        replay_trace(path, [o2])
        rate = o2.total.l1_misses / o2.total.memory_accesses
        print(f"{SGI_O2.name:<22} L1 miss {rate:.3%}, "
              f"L2 misses {o2.total.l2_misses:,}")

        # What-if 2..4: the paper's future-work platforms.
        for platform in EXTENDED_PLATFORMS:
            stack = platform.build()
            replay_trace(path, [stack])
            print(f"{platform.name:<22} L1 miss {stack.l1_miss_rate():.3%}, "
                  f"stall {stack.stall_fraction():.1%}")

    print("\nsame address stream, four machines, one codec run --")
    print("the mechanism behind every ablation in benchmarks/.")


if __name__ == "__main__":
    main()
