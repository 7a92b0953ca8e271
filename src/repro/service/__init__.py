"""Streaming service layer: a deterministic session multiplexer.

Turns the codec + transport stack into a simulated streaming *service*:
N client sessions, each running its own encode -> packetize -> lossy
channel -> decode pipeline under a private spawned seed, contending for
one shared encode budget behind admission control (token bucket, bounded
queue, deadline shedding) with a three-way outcome taxonomy --
served / degraded / shed -- refined by the fault-injection and recovery
control plane (``service/faults.py`` + ``service/recovery.py``) into
served / served_retry / degraded / shed / quarantined -- and further by
the adaptive-bitrate control plane (``service/abr.py``) into the full
seven-bucket taxonomy with ``switched_down`` / ``rebuffered``.

Scheduling happens in *virtual time*, so every decision and every
reported latency is a pure function of ``(fleet_seed, n_sessions,
config)``; the asyncio and supervised-worker-fleet backends only change
how fast the bit-identical answer is computed.  ``python -m repro
serve`` runs the scale study (sessions/sec vs latency percentiles vs
delivered PSNR as N grows); ``python -m repro faultstudy`` sweeps
availability / MTTR / retry amplification against fault intensity
across the recovery-policy ladder; ``python -m repro abrstudy`` sweeps
delivered PSNR / rebuffer ratio / switch rate against provisioned
bandwidth under time-varying channel capacity.
"""
