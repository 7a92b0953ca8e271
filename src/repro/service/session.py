"""One client session: spec, pipeline execution, digests.

A session is the unit the multiplexer schedules: a spec derived from the
fleet seed (arrival time, private channel seed, scene variant, loss
rate) plus an execution that runs the real codec + transport stack --
encode -> packetize -> Gilbert-Elliott channel -> tolerant decode -- and
reports quality (PSNR), loss accounting, and content digests of both the
delivered bitstream and the reconstructed frames.

Execution is a pure function of ``(spec, mode, config)``: the per-fleet
digest tables the study publishes are byte-identical however the
sessions were interleaved across workers.  A session pays only for what
depends on the session:

- per encode, keyed on ``(scene variant, mode, geometry, codec knobs)``:
  the encode itself (the fleet draws scenes from a small variant pool
  precisely so N sessions cost N transports, not N encodes), its
  packets (``transport.pipeline``'s send-half memo), and -- for the
  deliveries that arrive equal to it -- the stream digest, the decode
  outcome, the frames digest and the mean PSNR, computed by the first
  such delivery;
- per session: the channel, and for a damaged delivery the sha256 of
  the received bytes, the decode (memoized per received stream, since
  FEC repairs most loss and damaged streams repeat too) and the PSNR.

Most deliveries arrive intact, so most sessions touch neither the
decoder nor the hash.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.service.config import MODE_DEGRADED, MODE_FULL, ServiceConfig
from repro.service.seeding import spawn_session_seeds

__all__ = [
    "SessionSpec",
    "SessionResult",
    "build_fleet",
    "decode_received",
    "execute_session",
    "scene_spec_for_variant",
    "reset_encode_cache",
]

#: PSNR cap for exact reconstructions (JSON cannot carry inf).
_PSNR_CAP = 99.0


@dataclass(frozen=True)
class SessionSpec:
    """Deterministic identity of one client session (picklable)."""

    session_id: int
    fleet_seed: int
    arrival_vms: float
    channel_seed: int
    scene_variant: int
    loss_rate: float


@dataclass(frozen=True)
class SessionResult:
    """What executing one admitted session produced."""

    session_id: int
    mode: str
    decode_outcome: str  # "decoded" | "concealed" | "rejected"
    psnr_db: float
    stream_bits: int
    n_data_packets: int
    n_sent_packets: int
    n_dropped: int
    n_recovered: int
    n_unrepaired: int
    transport_vms: float
    decode_vms: float
    stream_digest: str
    frames_digest: str

    def loss_accounted(self) -> bool:
        """Every dropped packet is explained: recovered by FEC, or named
        as an unrepaired data-packet loss (parity losses cost nothing).
        No admitted session's packets vanish silently."""
        return (
            0 <= self.n_recovered <= self.n_dropped
            and self.n_unrepaired <= self.n_dropped - self.n_recovered
        )


def build_fleet(
    fleet_seed: int, n_sessions: int, config: ServiceConfig
) -> list[SessionSpec]:
    """Specs for ``n_sessions`` clients, in arrival order.

    Session identity (``session_id``) is the spawn index, so a session
    keeps its seed-derived identity whatever its arrival rank is.
    """
    specs = []
    for seed in spawn_session_seeds(fleet_seed, n_sessions):
        specs.append(
            SessionSpec(
                session_id=seed.index,
                fleet_seed=fleet_seed,
                arrival_vms=round(seed.u_arrival * config.arrival_window_vms, 6),
                channel_seed=seed.channel_seed,
                scene_variant=seed.variant_draw % config.scene_variants,
                loss_rate=config.loss_palette[
                    int(seed.u_loss * len(config.loss_palette))
                    % len(config.loss_palette)
                ],
            )
        )
    specs.sort(key=lambda s: (s.arrival_vms, s.session_id))
    return specs


def scene_spec_for_variant(variant: int, config: ServiceConfig):
    """The synthetic scene family of one variant (deterministic)."""
    from repro.video.synthesis import SceneSpec, VideoObjectSpec

    obj = VideoObjectSpec(
        center_x=config.width * (0.3 + 0.1 * (variant % 3)),
        center_y=config.height * (0.4 + 0.05 * (variant % 4)),
        radius_x=config.width * 0.18,
        radius_y=config.height * 0.22,
        velocity_x=1.0 + (variant % 3),
        velocity_y=0.5 + 0.5 * (variant % 2),
        texture_seed=variant + 1,
    )
    return SceneSpec(
        width=config.width,
        height=config.height,
        objects=(obj,),
        background_seed=variant,
    )


def _codec_config(mode: str, config: ServiceConfig):
    from repro.codec import CodecConfig

    return CodecConfig(
        config.width,
        config.height,
        qp=config.qp_for(mode),
        gop_size=config.gop_size,
        m_distance=1,
        resync_markers=True,
    )


# Per-process caches: content is a pure function of (variant, mode,
# config, codec knobs) so worker processes rebuild identical entries
# independently.
_SOURCE_CACHE: dict[tuple, list] = {}
_ENCODE_CACHE: dict[tuple, bytes] = {}
_LADDER_CACHE: dict[tuple, tuple] = {}
#: Encode key -> what a delivery equal to that encode reports:
#: ``(stream_digest, decode_outcome, frames_digest, mean_psnr)``.  Two
#: threads may both fill an entry; they store equal values.
_INTACT_CACHE: dict[tuple, tuple] = {}

#: Received streams the decode memo holds; the least recently used one
#: is evicted first.
_DECODE_MEMO_CAPACITY = 64
_DECODE_MEMO: OrderedDict[tuple, tuple] = OrderedDict()
_DECODE_MEMO_LOCK = threading.Lock()  # the asyncio backend decodes in threads


def reset_encode_cache() -> None:
    """Test hook: drop the per-process source, encode, rendition-ladder,
    intact-delivery, send-half and decode caches, so the next session
    pays every cold cost."""
    from repro.transport.pipeline import _send_half

    _SOURCE_CACHE.clear()
    _ENCODE_CACHE.clear()
    _LADDER_CACHE.clear()
    _INTACT_CACHE.clear()
    _send_half.cache_clear()
    with _DECODE_MEMO_LOCK:
        _DECODE_MEMO.clear()


def _source_frames(variant: int, config: ServiceConfig):
    from repro.video.synthesis import SyntheticScene

    key = (variant, config.width, config.height, config.n_frames)
    if key not in _SOURCE_CACHE:
        scene = SyntheticScene(scene_spec_for_variant(variant, config))
        _SOURCE_CACHE[key] = [scene.frame(i) for i in range(config.n_frames)]
    return _SOURCE_CACHE[key]


def _encoding(variant: int, mode: str, config: ServiceConfig) -> tuple:
    """``(key, data)``: one variant's encoded stream at ``mode`` and the
    cache key it is held under."""
    from repro.codec import VopEncoder
    from repro.codec.engine import codec_knobs

    key = (variant, mode, config.width, config.height, config.n_frames,
           config.qp_for(mode), config.gop_size, codec_knobs())
    if key not in _ENCODE_CACHE:
        with obs.span("service.session.encode", variant=variant, mode=mode):
            frames = _source_frames(variant, config)
            encoded = VopEncoder(_codec_config(mode, config)).encode_sequence(
                frames
            )
            _ENCODE_CACHE[key] = encoded.data
    return key, _ENCODE_CACHE[key]


def _ladder_encodings(
    variant: int, config: ServiceConfig, ladder: tuple
) -> tuple:
    """Every rung of one variant's rendition ladder, in ladder order."""
    from repro.codec.engine import codec_knobs
    from repro.codec.renditions import encode_ladder

    key = (
        variant, config.width, config.height, config.n_frames,
        config.gop_size,
        tuple((s.name, s.scale, s.qp, s.target_kbps) for s in ladder),
        codec_knobs(),
    )
    if key not in _LADDER_CACHE:
        _LADDER_CACHE[key] = encode_ladder(
            _source_frames(variant, config), ladder,
            width=config.width, height=config.height,
            gop_size=config.gop_size,
        )
    return _LADDER_CACHE[key]


def _frames_digest(frames) -> str:
    import numpy as np

    from repro.ioutil import sha256_hex

    blob = b"".join(
        np.ascontiguousarray(plane).tobytes()
        for frame in frames
        for plane in (frame.y, frame.u, frame.v)
    )
    return sha256_hex(blob)


def decode_received(stream: bytes, stream_digest: str) -> tuple:
    """Tolerantly decode one received stream: ``(decode_outcome, frames,
    frames_digest)``.

    ``decode_outcome`` is ``decoded``, ``concealed`` or ``rejected``; a
    rejected stream has no frames and frames digest ``"-"``.  Decode is a
    pure function of the bytes and the codec knobs, so the result is
    memoized on ``(stream_digest, codec knobs)``, where ``stream_digest``
    is the caller's sha256 of ``stream``.  Memoized frames are shared by
    every session that received the same bytes, so they are read-only.
    Direct :class:`~repro.codec.VopDecoder` calls bypass the memo.
    """
    from repro.codec import VopDecoder
    from repro.codec.engine import codec_knobs
    from repro.codec.errors import BitstreamError

    key = (stream_digest, codec_knobs())
    with _DECODE_MEMO_LOCK:
        entry = _DECODE_MEMO.get(key)
        if entry is not None:
            _DECODE_MEMO.move_to_end(key)
    if entry is not None:
        obs.counter_add("service.decode_memo.hits")
        return entry
    obs.counter_add("service.decode_memo.misses")
    try:
        decoded = VopDecoder().decode_sequence(stream, tolerate_errors=True)
    except BitstreamError:
        entry = ("rejected", None, "-")
    else:
        frames = tuple(decoded.frames)
        for frame in frames:
            for plane in (frame.y, frame.u, frame.v):
                plane.flags.writeable = False
        outcome = "decoded" if decoded.is_clean else "concealed"
        entry = (outcome, frames, _frames_digest(frames))
    with _DECODE_MEMO_LOCK:
        _DECODE_MEMO[key] = entry
        _DECODE_MEMO.move_to_end(key)  # another thread may have stored it
        while len(_DECODE_MEMO) > _DECODE_MEMO_CAPACITY:
            _DECODE_MEMO.popitem(last=False)
    return entry


def _received_values(
    stream: bytes, variant: int, session_id: int, config: ServiceConfig
) -> tuple:
    """``(stream_digest, decode_outcome, frames_digest, mean_psnr)`` of
    one received stream: digest, memoized decode, PSNR against the
    variant's source frames."""
    from repro.ioutil import sha256_hex
    from repro.video.quality import psnr

    stream_digest = sha256_hex(stream)
    with obs.span("service.session.decode", session=session_id):
        decode_outcome, frames, frames_digest = decode_received(
            stream, stream_digest
        )
    mean_psnr = 0.0
    if frames is not None:
        sources = _source_frames(variant, config)
        values = [
            min(psnr(src.y, out.y), _PSNR_CAP)
            for src, out in zip(sources, frames)
        ]
        mean_psnr = sum(values) / len(values) if values else 0.0
    return stream_digest, decode_outcome, frames_digest, mean_psnr


def execute_session(
    spec: SessionSpec,
    mode: str,
    config: ServiceConfig,
    channel_seed: int | None = None,
    blackout: tuple[tuple[int, int], ...] = (),
) -> SessionResult:
    """Run one admitted session's pipeline; deterministic per spec/mode.

    ``channel_seed`` and ``blackout`` override the spec's channel for a
    delivery that happened on a *retry* attempt (fresh channel state) or
    through a surviving outage window (``service/recovery.py`` decides
    both); the defaults reproduce the plain, fault-free delivery.

    A delivery equal to its encode reports the values the first such
    delivery computed (``_INTACT_CACHE``); it still counts one decode
    memo hit and opens the ``service.session.decode`` span, so the
    decode counters account for every session as before.
    """
    from repro.transport.pipeline import TransportConfig, transmit_stream

    if mode not in (MODE_FULL, MODE_DEGRADED):
        raise ValueError(f"unknown session mode {mode!r}")
    variant = spec.scene_variant
    with obs.span("service.session.execute", session=spec.session_id, mode=mode):
        key, encoded = _encoding(variant, mode, config)
        with obs.span("service.session.transport", session=spec.session_id):
            transport = transmit_stream(
                encoded,
                TransportConfig(
                    max_payload=config.max_payload,
                    loss_rate=spec.loss_rate,
                    seed=spec.channel_seed if channel_seed is None
                    else channel_seed,
                    fec_group=config.fec_group,
                    interleave_depth=config.interleave_depth,
                    blackout=blackout,
                ),
            )
        if transport.stream != encoded:
            values = _received_values(
                transport.stream, variant, spec.session_id, config
            )
        else:
            values = _INTACT_CACHE.get(key)
            if values is None:
                values = _INTACT_CACHE[key] = _received_values(
                    encoded, variant, spec.session_id, config
                )
            else:
                with obs.span("service.session.decode",
                              session=spec.session_id):
                    obs.counter_add("service.decode_memo.hits")
    stream_digest, decode_outcome, frames_digest, mean_psnr = values
    obs.counter_add("service.sessions_executed")
    obs.counter_add("service.packets_dropped", transport.n_dropped)
    return SessionResult(
        session_id=spec.session_id,
        mode=mode,
        decode_outcome=decode_outcome,
        psnr_db=round(mean_psnr, 4),
        stream_bits=len(transport.stream) * 8,
        n_data_packets=transport.n_data_packets,
        n_sent_packets=transport.n_sent_packets,
        n_dropped=transport.n_dropped,
        n_recovered=transport.n_recovered,
        n_unrepaired=len(transport.lost_seqs),
        transport_vms=round(transport.n_sent_packets * config.per_packet_vms, 6),
        decode_vms=round(config.decode_vms(mode), 6),
        stream_digest=stream_digest,
        frames_digest=frames_digest,
    )
