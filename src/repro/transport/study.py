"""PSNR-vs-loss resilience study: ``python -m repro resilience``.

Sweeps the cross product of resilience configurations (plain resync,
data partitioning, +reversible VLC, +FEC) against channel loss rates and
channel seeds, decoding every damaged stream with the tolerant decoder
and recording per-cell quality, concealment, and recovery accounting.

Reproducibility contract: every cell is a pure function of
``(config, loss_rate, seed)`` -- the channel replays from the seed, the
codec is deterministic, artifacts carry content digests and no
timestamps -- so two runs (or a run and its ``--resume``) are
byte-identical.  :mod:`repro.core.runner.sweep` publishes cells
atomically one file at a time, which is what makes the kill-and-resume
chaos drill safe: a killed run leaves only whole cells, and resume
recomputes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from repro.codec import CodecConfig, VopDecoder, VopEncoder
from repro.codec.errors import BitstreamError
from repro.core.machines import SGI_ONYX2
from repro.core.runner import sweep
from repro.transport.pipeline import TransportConfig, transmit_stream
from repro.video.quality import psnr
from repro.video.synthesis import SceneSpec, SyntheticScene

__all__ = [
    "RESILIENCE_CONFIGS",
    "ResilienceCell",
    "ResilienceConfig",
    "run_cell",
    "run_sweep",
    "summarize",
]

#: Scene geometry: large enough for several packets per frame, small
#: enough that the full grid runs in well under a minute.
_WIDTH, _HEIGHT, _N_FRAMES = 96, 64, 8
#: PSNR cap used when frames match exactly (JSON cannot carry inf).
_PSNR_CAP = 99.0
#: The machine whose counters the traced cells snapshot.
_MACHINE = SGI_ONYX2


@dataclass(frozen=True)
class ResilienceConfig:
    """One point on the resilience-tool ladder."""

    name: str
    data_partitioning: bool = False
    reversible_vlc: bool = False
    fec_group: int = 0
    interleave_depth: int = 1

    def codec_config(self) -> CodecConfig:
        return CodecConfig(
            _WIDTH,
            _HEIGHT,
            qp=8,
            gop_size=4,
            m_distance=1,
            resync_markers=True,
            data_partitioning=self.data_partitioning,
            reversible_vlc=self.reversible_vlc,
        )

    def transport_config(self, loss_rate: float, seed: int) -> TransportConfig:
        return TransportConfig(
            max_payload=128,
            loss_rate=loss_rate,
            seed=seed,
            fec_group=self.fec_group,
            interleave_depth=self.interleave_depth,
        )


#: The ladder the study compares, weakest to strongest.
RESILIENCE_CONFIGS: dict[str, ResilienceConfig] = {
    "plain": ResilienceConfig("plain"),
    "dp": ResilienceConfig("dp", data_partitioning=True),
    "dp_rvlc": ResilienceConfig("dp_rvlc", data_partitioning=True, reversible_vlc=True),
    "dp_rvlc_fec": ResilienceConfig(
        "dp_rvlc_fec",
        data_partitioning=True,
        reversible_vlc=True,
        fec_group=4,
        interleave_depth=4,
    ),
}

#: Default sweep grid.
DEFAULT_LOSSES = (0.0, 0.01, 0.03, 0.05, 0.10)
DEFAULT_SEEDS = tuple(range(5))
#: Reduced grid for the CI smoke job (~50 seeded loss cases).
SMOKE_LOSSES = (0.02, 0.05, 0.10)
SMOKE_SEEDS = tuple(range(4))


@dataclass(frozen=True)
class ResilienceCell:
    """One (configuration, loss rate, channel seed) study point."""

    config: str
    loss_rate: float
    seed: int

    @property
    def cell_id(self) -> str:
        return f"{self.config}@l{self.loss_rate:g}+s{self.seed}"


def _source_frames():
    scene = SyntheticScene(SceneSpec.default(_WIDTH, _HEIGHT))
    return [scene.frame(i) for i in range(_N_FRAMES)]


def _encode(config: ResilienceConfig) -> bytes:
    frames = _source_frames()
    return VopEncoder(config.codec_config()).encode_sequence(frames).data


def _mean_psnr(sources, decoded_frames) -> float:
    values = []
    for source, out in zip(sources, decoded_frames):
        value = psnr(source.y, out.y)
        values.append(min(value, _PSNR_CAP))
    return sum(values) / len(values) if values else 0.0


def _counter_snapshot(counters) -> dict:
    return {
        field.name: int(getattr(counters, field.name))
        for field in fields(counters)
        if field.name != "clock"
    }


def _traced_decode_counters(stream: bytes) -> dict:
    """Memory-hierarchy counters of the tolerant (concealing) decode.

    Runs the damaged stream through the instrumented decoder -- which
    emits concealment-pass traffic for lost rows -- and replays the
    recording into the study machine's cache hierarchy.
    """
    from repro.trace.persistence import TraceCapture
    from repro.trace.recorder import TraceRecorder

    capture = TraceCapture()
    recorder = TraceRecorder([capture])
    decoder = VopDecoder(recorder, "res.vo0.vol0")
    try:
        decoder.decode_sequence(stream, tolerate_errors=True)
    except BitstreamError:
        pass  # counters up to the rejection point are still meaningful
    hierarchy = _MACHINE.build_hierarchy()
    hierarchy.replay(capture.batches)
    return _counter_snapshot(hierarchy.total)


def run_cell(
    cell: ResilienceCell,
    encoded: bytes | None = None,
    trace_counters: bool = False,
) -> dict:
    """Execute one study point; returns its JSON-serializable record."""
    config = RESILIENCE_CONFIGS[cell.config]
    if encoded is None:
        encoded = _encode(config)
    transport = transmit_stream(
        encoded, config.transport_config(cell.loss_rate, cell.seed)
    )
    sources = _source_frames()
    record: dict = {
        "cell_id": cell.cell_id,
        "config": cell.config,
        "loss_rate": cell.loss_rate,
        "seed": cell.seed,
        "transport": {
            "n_data_packets": transport.n_data_packets,
            "n_sent_packets": transport.n_sent_packets,
            "n_dropped": transport.n_dropped,
            "n_recovered": transport.n_recovered,
            "n_unrepaired": len(transport.lost_seqs),
        },
    }
    try:
        decoded = VopDecoder().decode_sequence(transport.stream, tolerate_errors=True)
    except BitstreamError as error:
        record["decode"] = {
            "outcome": "rejected",
            "error": type(error).__name__,
            "mean_psnr_db": 0.0,
        }
    else:
        outcome = "decoded" if decoded.is_clean else "concealed"
        record["decode"] = {
            "outcome": outcome,
            "mean_psnr_db": round(_mean_psnr(sources, decoded.frames), 4),
            "concealed_frames": decoded.concealed_frames,
            "lost_packets": sum(s.lost_packets for s in decoded.vop_stats),
            "texture_concealed_mbs": sum(
                s.texture_concealed_mbs for s in decoded.vop_stats
            ),
            "rvlc_salvaged_blocks": sum(
                s.rvlc_salvaged_blocks for s in decoded.vop_stats
            ),
        }
    if trace_counters:
        record["counters"] = _traced_decode_counters(transport.stream)
    return record


def grid_cells(losses, seeds, configs=None) -> list[ResilienceCell]:
    names = list(configs) if configs is not None else list(RESILIENCE_CONFIGS)
    return [
        ResilienceCell(name, loss, seed)
        for name in names
        for loss in losses
        for seed in seeds
    ]


def run_sweep(
    run_dir: str | Path,
    losses=DEFAULT_LOSSES,
    seeds=DEFAULT_SEEDS,
    configs=None,
    resume: bool = False,
    trace_counters: bool = True,
) -> dict:
    """Run (or finish) a resilience sweep; returns the summary dict.

    Memory-hierarchy counters are traced for each grid's first seed only
    (the traced decode is an order of magnitude slower than a plain one,
    and the counters are seed-independent in shape).
    """
    encoded_cache: dict[str, bytes] = {}
    first_seed = min(seeds) if seeds else 0

    def run_one(cell: ResilienceCell) -> tuple[dict, None]:
        if cell.config not in encoded_cache:
            encoded_cache[cell.config] = _encode(RESILIENCE_CONFIGS[cell.config])
        record = run_cell(
            cell,
            encoded=encoded_cache[cell.config],
            trace_counters=trace_counters and cell.seed == first_seed,
        )
        return record, None

    return sweep.run_grid(
        "resilience", run_dir, grid_cells(losses, seeds, configs), run_one,
        lambda run_dir: summarize(run_dir, losses, seeds, configs),
        render_summary, resume,
    )


def summarize(run_dir: str | Path, losses, seeds, configs=None) -> dict:
    """Aggregate published cells into PSNR-vs-loss and recovery curves."""
    curves: dict = {}
    missing: list[str] = []
    names = list(configs) if configs is not None else list(RESILIENCE_CONFIGS)
    for name in names:
        per_loss = {}
        for loss in losses:
            records, absent = sweep.load_cells(
                run_dir, grid_cells((loss,), seeds, (name,))
            )
            missing += absent
            if not records:
                continue
            dropped = sum(r["transport"]["n_dropped"] for r in records)
            recovered = sum(r["transport"]["n_recovered"] for r in records)
            outcomes = {"decoded": 0, "concealed": 0, "rejected": 0}
            for r in records:
                outcomes[r["decode"]["outcome"]] += 1
            per_loss[f"{loss:g}"] = {
                "mean_psnr_db": round(
                    sum(r["decode"]["mean_psnr_db"] for r in records) / len(records),
                    4,
                ),
                "recovery_rate": round(recovered / dropped, 4) if dropped else 1.0,
                "outcomes": outcomes,
                "cells": len(records),
            }
        curves[name] = per_loss
    return {"format": 1, "grid": {"losses": [f"{l:g}" for l in losses],
                                  "seeds": list(seeds)}, "curves": curves,
            "missing_cells": sorted(missing)}


def render_summary(summary: dict) -> str:
    """Plain-text PSNR-vs-loss table (mirrors the paper's table style)."""
    losses = summary["grid"]["losses"]
    lines = []
    header = f"{'config':<14}" + "".join(f"{('loss ' + l):>17}" for l in losses)
    lines.append(header)
    lines.append("-" * len(header))
    for name, per_loss in summary["curves"].items():
        row = f"{name:<14}"
        for loss in losses:
            point = per_loss.get(loss)
            if point is None:
                row += f"{'--':>17}"
            else:
                row += (
                    f"{point['mean_psnr_db']:>9.2f}dB"
                    f"/{point['recovery_rate']:>4.0%}"
                )
        lines.append(row)
    lines.append("")
    lines.append("cell outcomes (decoded clean / decoded with concealment / rejected):")
    for name, per_loss in summary["curves"].items():
        parts = []
        for loss in losses:
            point = per_loss.get(loss)
            if point is None:
                continue
            o = point["outcomes"]
            parts.append(f"l{loss}: {o['decoded']}/{o['concealed']}/{o['rejected']}")
        lines.append(f"  {name:<14}{'  '.join(parts)}")
    return "\n".join(lines)
