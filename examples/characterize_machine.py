#!/usr/bin/env python3
"""Characterize MPEG-4 memory behaviour on the paper's three SGI machines.

Demonstrates the study half of the library: the instrumented codec feeds
one simulated memory hierarchy per machine, and the perfex-style metrics
of Section 3.1 come out the other end -- the exact experiment of the
paper, at a demo-friendly resolution.

Run:  python examples/characterize_machine.py
"""

from repro.core.machines import STUDY_MACHINES
from repro.core.study import Workload, characterize_decode, characterize_encode


def show(result) -> None:
    print(f"\n{result.direction} -- {result.workload.label} "
          f"(footprint {result.footprint_bytes / 1e6:.0f} MB)")
    header = (f"  {'machine':<10} {'L1 miss':>8} {'L1 reuse':>9} {'L2 miss':>8} "
              f"{'DRAM time':>9} {'bus use':>8}")
    print(header)
    for machine in STUDY_MACHINES:
        report = result.reports[machine.label]
        print(
            f"  {machine.label:<10} {report.l1_miss_rate:>8.3%} "
            f"{report.l1_line_reuse:>9.0f} {report.l2_miss_rate:>8.1%} "
            f"{report.dram_time:>9.1%} {report.bus_utilization:>8.2%}"
        )


def main() -> None:
    workload = Workload("demo", width=352, height=288, n_vos=1, n_layers=1,
                        n_frames=9)
    print("Running the instrumented encoder/decoder against simulated")
    print("SGI O2 (R12K/1MB), Onyx (R10K/2MB) and Onyx2 (R12K/8MB)...")
    encode = characterize_encode(workload)
    show(encode)
    decode = characterize_decode(workload, encoded=encode.encoded)
    show(decode)

    print("\nThe paper's conclusions, visible even at this small scale:")
    onyx_encode = encode.reports["R10K 2MB"]
    onyx_decode = decode.reports["R10K 2MB"]
    print(f"  - L1 hit rates are ~optimal "
          f"(encode {1 - onyx_encode.l1_miss_rate:.2%}, "
          f"decode {1 - onyx_decode.l1_miss_rate:.2%})")
    print(f"  - each L1 line is reused ~{onyx_encode.l1_line_reuse:.0f}x while "
          f"encoding: 'streaming MPEG-4' does not really stream")
    print(f"  - DRAM stalls {onyx_decode.dram_time:.1%} of decode time: "
          f"not latency bound")
    print(f"  - bus use is {onyx_decode.bus_utilization:.1%} of 680 MB/s: "
          f"not bandwidth bound")


if __name__ == "__main__":
    main()
