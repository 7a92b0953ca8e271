#!/usr/bin/env python3
"""Object-based coding: multiple arbitrary-shape VOs in one scene.

MPEG-4's distinguishing feature over MPEG-1/2 is the object model: each
scene object is a separate video object with its own shape, coded and
transmitted independently (paper Section 1).  This example codes a
background VO plus two elliptical foreground VOs -- shape coded losslessly
with context-based arithmetic coding, texture in MB-aligned bounding
boxes -- then verifies reconstruction per object.

Run:  python examples/multi_object_scene.py
"""

import numpy as np

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.core.study import Workload, build_workload_inputs
from repro.video import psnr


def main() -> None:
    workload = Workload("demo-3vo", width=352, height=288, n_vos=3, n_layers=1,
                        n_frames=6)
    inputs = build_workload_inputs(workload)
    print(f"scene decomposed into {len(inputs)} video objects:")

    streams = []
    for vo in inputs:
        encoder = VopEncoder(vo.config, vo_id=vo.vo_id)
        encoded = encoder.encode_sequence(vo.frames, vo.masks)
        streams.append((vo, encoded))
        kind = "arbitrary shape" if vo.config.arbitrary_shape else "rectangular"
        print(
            f"  VO {vo.vo_id}: {vo.config.width}x{vo.config.height} ({kind}), "
            f"{len(encoded.data):,} bytes"
        )

    print("\ndecoding each object's stream independently:")
    for vo, encoded in streams:
        decoded = VopDecoder().decode_sequence(encoded.data)
        if vo.masks is None:
            quality = psnr(vo.frames[0].y, decoded.frames[0].y)
        else:
            # Arbitrary-shape VOs are only meaningful inside the shape;
            # outside it the encoder codes padding, not content.
            inside = vo.masks[0] != 0
            diff = (vo.frames[0].y.astype(float) - decoded.frames[0].y.astype(float))
            mse_inside = float((diff[inside] ** 2).mean())
            quality = 10 * np.log10(255.0**2 / max(mse_inside, 1e-9))
        line = f"  VO {vo.vo_id}: luma PSNR {quality:.1f} dB"
        if vo.masks is not None:
            shapes_exact = all(
                np.array_equal(original, recovered)
                for original, recovered in zip(vo.masks, decoded.masks)
            )
            transparent = sum(v.transparent_mbs for v in decoded.vop_stats)
            line += (f", shape lossless: {shapes_exact}, "
                     f"{transparent} transparent MBs skipped")
        print(line)

    total = sum(len(encoded.data) for _, encoded in streams)
    print(f"\ntotal scene payload: {total:,} bytes; objects remain independently")
    print("decodable, composable, and transformable -- the MPEG-4 promise.")


if __name__ == "__main__":
    main()
