#!/usr/bin/env python3
"""Mini Figure 2: memory behaviour as the image grows.

The paper's counterintuitive finding: cache performance of MPEG-4 video is
essentially independent of frame size -- and some metrics *improve* as
frames grow.  This example sweeps three resolutions through the decoder on
the 1 MB-L2 machine (scaled down from the paper's sizes so it runs in
about a minute).

Run:  python examples/image_size_sweep.py
"""

from repro.core.machines import SGI_O2
from repro.core.study import Workload, characterize_decode

SIZES = [(176, 144), (352, 288), (704, 576)]


def main() -> None:
    print("decoding on the simulated SGI O2 (R12K, 1 MB L2):\n")
    print(f"{'resolution':<12} {'L1 miss':>8} {'L2 miss':>8} {'DRAM time':>10} "
          f"{'L2-DRAM MB/s':>13}")
    rows = []
    for width, height in SIZES:
        workload = Workload(f"{width}x{height}", width=width, height=height,
                            n_frames=6)
        result = characterize_decode(workload, machines=(SGI_O2,))
        report = result.reports[SGI_O2.label]
        rows.append(report)
        print(
            f"{width}x{height:<7} {report.l1_miss_rate:>8.3%} "
            f"{report.l2_miss_rate:>8.1%} {report.dram_time:>10.1%} "
            f"{report.l2_dram_bw_mb_s:>13.1f}"
        )

    print("\nmemory requirements grow ~linearly with the pixels, yet the")
    print("miss ratios stay flat: the 16x16/8x8 blocking dictated by the")
    print("MPEG-4 protocol makes image size largely irrelevant to the cache.")
    growth = rows[-1].l1_miss_rate / max(rows[0].l1_miss_rate, 1e-9)
    print(f"L1 miss-rate change across a 16x pixel growth: {growth:.2f}x")


if __name__ == "__main__":
    main()
