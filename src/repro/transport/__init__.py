"""Error-resilient streaming transport for encoded MPEG-4 bitstreams.

The paper studies the decoder as a workload; this package supplies the
lossy delivery path in front of it, so the error-resilience tools
(resync markers, data partitioning, reversible VLC -- paper Section 2.1)
can be measured under realistic packet loss rather than only local byte
corruption:

- :mod:`repro.transport.packetizer` -- startcode-aware segmentation of a
  bitstream into bounded network packets, and lossy reassembly.
- :mod:`repro.transport.channel` -- a seeded Gilbert-Elliott two-state
  burst-loss channel, replayable bit-for-bit from ``(seed, profile)``.
- :mod:`repro.transport.fec` -- XOR parity groups that recover any
  single lost packet per group.
- :mod:`repro.transport.interleave` -- block interleaving so a loss
  burst lands on packets far apart in stream order.
- :mod:`repro.transport.pipeline` -- the composed send/receive path.
- :mod:`repro.transport.study` -- the PSNR-vs-loss resilience sweep
  behind ``python -m repro resilience``.
"""

from repro.transport.channel import GilbertElliottChannel, profile_for_loss
from repro.transport.fec import add_parity, recover_with_parity
from repro.transport.interleave import deinterleave, interleave
from repro.transport.packetizer import Packet, depacketize, packetize
from repro.transport.pipeline import TransportConfig, transmit_stream

__all__ = [
    "GilbertElliottChannel",
    "Packet",
    "TransportConfig",
    "add_parity",
    "deinterleave",
    "depacketize",
    "interleave",
    "packetize",
    "profile_for_loss",
    "recover_with_parity",
    "transmit_stream",
]
