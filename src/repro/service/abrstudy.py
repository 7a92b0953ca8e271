"""The ABR study: ``repro abrstudy``.

Sweeps delivered PSNR, rebuffer ratio, and switch rate against
*provisioned bandwidth* across channel-capacity profiles (steady /
step_drop / walk) and the ABR-policy ladder (fixed / buffer /
throughput / hybrid) -- the availability-vs-provisioning question of the
fault study asked one layer up, for quality under a collapsing channel.

Every cell runs the full stack: the fleet is scheduled and the PR 8
fault/recovery plane refines it (a fixed fault intensity keeps blackouts
driving the breaker path), then the ABR control plane plays each
delivered session through its bandwidth trace and the rescue lane
re-streams deadline-shed sessions at the bottom rung.  The data plane
then transmits each delivered session's *dominant* (most-streamed,
ties to the lower) rendition through its Gilbert-Elliott channel and
tolerantly decodes it, so the published digests pin real bitstreams --
the controller-plane per-segment PSNR is what the tables report (a
segment-accurate number the single delivered stream cannot provide).

Reproducibility contract, identical to the serve/fault studies: cells
are pure functions of their grid coordinates, published atomically with
content digests; two runs, a run and its ``--resume``, and runs on any
backend/jobs combination are byte-identical.  Wall-clock telemetry goes
to the never-diffed sidecar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.runner import sweep
from repro.ioutil import sha256_hex
from repro.service.abr import (
    ABR_OUTCOMES,
    ABR_POLICIES,
    ABR_POLICY_LADDER,
    DEFAULT_SEGMENT_VMS,
    ladder_tracks,
    simulate_abr_fleet,
)
from repro.service.backends import run_tasks
from repro.service.config import ServiceConfig
from repro.service.faults import FaultConfig, FaultPlan
from repro.service.recovery import POLICIES, simulate_recovery
from repro.service.scheduler import schedule_fleet
from repro.service.session import (
    SessionSpec,
    _ladder_encodings,
    build_fleet,
    decode_received,
)
from repro.service.study import DEFAULT_SEEDS, cell_wall
from repro.transport.bandwidth import PROFILE_NAMES, PROFILES

__all__ = [
    "ABR_CONFIG",
    "ABR_DEFAULT_N",
    "ABR_SMOKE_N",
    "ABR_FAULT_INTENSITY",
    "ABR_RECOVERY_POLICY",
    "DEFAULT_BANDWIDTHS_KBPS",
    "SMOKE_BANDWIDTHS_KBPS",
    "DEFAULT_PROFILES",
    "SMOKE_PROFILES",
    "SCHEMA_ABRSTUDY",
    "AbrCell",
    "abr_grid_cells",
    "run_abr_cell",
    "run_abr_sweep",
    "summarize_abr",
    "render_abr_summary",
]

#: The ABR study's service shape: longer sessions (8 frames = 8 media
#: segments, enough decisions for hysteresis to matter), every channel
#: at the paper-style 5% mean loss, and a tighter encode budget so the
#: admission plane sheds on *deadline* at N=64 -- the shed class the
#: rescue lane can lift.
ABR_CONFIG = ServiceConfig(
    n_frames=8,
    loss_palette=(0.05,),
    capacity_units_per_vms=1.0,
)

ABR_DEFAULT_N = 64
ABR_SMOKE_N = 24

#: Fixed fault pressure so the recovery plane stays live inside every
#: cell (blackouts fail attempts and drive the per-variant breakers);
#: the ABR grid itself sweeps bandwidth, not intensity.
ABR_FAULT_INTENSITY = 0.2
ABR_RECOVERY_POLICY = "full"

#: Provisioned-bandwidth grid in kbit/s, spanning the default ladder
#: (bottom rung ~3 kbps, top rung ~31 kbps at the study geometry).
DEFAULT_BANDWIDTHS_KBPS = (8, 16, 24, 36, 48)
SMOKE_BANDWIDTHS_KBPS = (16, 36)
DEFAULT_PROFILES = PROFILE_NAMES
SMOKE_PROFILES = ("step_drop",)

SCHEMA_ABRSTUDY = "repro-abrstudy"

#: Cells up to this many sessions embed the full per-session table.
_ABR_SESSION_TABLE_LIMIT = 64


@dataclass(frozen=True)
class AbrCell:
    """One (fleet, provisioned bandwidth, profile, policy) study point."""

    n_sessions: int
    seed: int
    bandwidth_kbps: int
    profile: str
    policy: str

    def __post_init__(self) -> None:
        if self.bandwidth_kbps <= 0:
            raise ValueError(
                f"bandwidth_kbps must be positive, got {self.bandwidth_kbps}"
            )
        if self.profile not in PROFILES:
            raise ValueError(f"unknown bandwidth profile {self.profile!r}")
        if self.policy not in ABR_POLICIES:
            raise ValueError(f"unknown ABR policy {self.policy!r}")

    @property
    def cell_id(self) -> str:
        return (
            f"n{self.n_sessions}+s{self.seed}+b{self.bandwidth_kbps}"
            f"+{self.profile}+{self.policy}"
        )


def abr_grid_cells(ns, seeds, bandwidths, profiles, policies) -> list[AbrCell]:
    return [
        AbrCell(n, seed, bandwidth, profile, policy)
        for n in ns
        for seed in seeds
        for bandwidth in bandwidths
        for profile in profiles
        for policy in policies
    ]


def _deliver_rendition_task(
    spec: SessionSpec,
    rung: int,
    config: ServiceConfig,
    channel_seed: int,
    blackout: tuple,
    ladder: tuple,
) -> dict:
    """Data-plane delivery of one session's dominant rendition.

    Module-level and pure so the supervised fleet can pickle it and
    every backend computes the identical digests.
    """
    from repro.transport.pipeline import TransportConfig, transmit_stream

    encoding = _ladder_encodings(spec.scene_variant, config, ladder)[rung]
    transport = transmit_stream(
        encoding.data,
        TransportConfig(
            max_payload=config.max_payload,
            loss_rate=spec.loss_rate,
            seed=channel_seed,
            fec_group=config.fec_group,
            interleave_depth=config.interleave_depth,
            blackout=blackout,
        ),
    )
    stream_digest = sha256_hex(transport.stream)
    decode_outcome, _, frames_digest = decode_received(
        transport.stream, stream_digest
    )
    return {
        "decode_outcome": decode_outcome,
        "stream_digest": stream_digest,
        "frames_digest": frames_digest,
        "n_dropped": transport.n_dropped,
        "n_recovered": transport.n_recovered,
    }


def _dominant_rung(rungs: tuple[int, ...]) -> int:
    """Most-streamed rung; ties resolve to the lower (safer) rung."""
    counts: dict[int, int] = {}
    for rung in rungs:
        counts[rung] = counts.get(rung, 0) + 1
    return min(counts, key=lambda rung: (-counts[rung], rung))


def run_abr_cell(
    cell: AbrCell,
    config: ServiceConfig = ABR_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
    ladder: tuple | None = None,
) -> tuple[dict, dict]:
    """Execute one ABR study point.

    Returns ``(record, wall)``; ``wall`` carries the controller plane's
    own wall share (``controller_wall_s``), which the perf suite holds
    under 2% of the cell.

    ``ladder`` (default: the full :data:`~repro.codec.renditions.
    DEFAULT_LADDER`) is *not* part of the cell identity -- runs with a
    custom ladder subset must use their own run directory.
    """
    from repro.codec.renditions import DEFAULT_LADDER, validate_ladder

    if ladder is None:
        ladder = DEFAULT_LADDER
    validate_ladder(ladder)
    wall_start = time.perf_counter()
    specs = build_fleet(cell.seed, cell.n_sessions, config)
    schedule = schedule_fleet(specs, config)
    fault_plan = FaultPlan(cell.seed, FaultConfig(intensity=ABR_FAULT_INTENSITY))
    recovery = simulate_recovery(
        specs, schedule, fault_plan, POLICIES[ABR_RECOVERY_POLICY], config
    )
    variants = sorted({spec.scene_variant for spec in specs})
    tracks_by_variant = {
        variant: ladder_tracks(_ladder_encodings(variant, config, ladder))
        for variant in variants
    }

    controller_start = time.perf_counter()
    report = simulate_abr_fleet(
        specs, schedule, recovery, tracks_by_variant,
        ABR_POLICIES[cell.policy], PROFILES[cell.profile],
        float(cell.bandwidth_kbps), config,
    )
    controller_wall_s = time.perf_counter() - controller_start
    if not report.conserves(schedule):
        raise AssertionError(
            f"ABR outcome conservation violated in {cell.cell_id}: "
            f"{report.outcomes} vs {schedule.offered} offered"
        )

    # Data plane: deliver each session's dominant rendition through its
    # channel (rescued sessions stream on their original channel seed).
    by_id = {spec.session_id: spec for spec in specs}
    tasks = []
    dominant: dict[int, int] = {}
    for trace in report.traces:
        spec = by_id[trace.session_id]
        rung = _dominant_rung(trace.rungs)
        dominant[trace.session_id] = rung
        if trace.rescued:
            channel_seed, blackout = spec.channel_seed, ()
        else:
            chain = recovery.chain_for(trace.session_id)
            channel_seed, blackout = chain.channel_seed, chain.blackout
        tasks.append(
            (
                f"abr-{trace.session_id}",
                _deliver_rendition_task,
                (spec, rung, config, channel_seed, blackout, ladder),
            )
        )
    deliveries = run_tasks(tasks, backend, jobs)
    wall_s = time.perf_counter() - wall_start

    want_sessions = cell.n_sessions <= _ABR_SESSION_TABLE_LIMIT
    lines = []
    sessions = []
    decode_outcomes = {"decoded": 0, "concealed": 0, "rejected": 0}
    for plan in schedule.plans:
        session_id = plan.session_id
        outcome = report.session_outcomes[session_id]
        if session_id not in dominant:
            if outcome == "quarantined":
                chain = recovery.chain_for(session_id)
                lines.append(
                    f"{session_id}:quarantined:{chain.quarantine_reason}:"
                    f"a{chain.n_attempts}"
                )
                if want_sessions:
                    sessions.append(
                        {"session_id": session_id, "outcome": outcome,
                         "quarantine_reason": chain.quarantine_reason}
                    )
            else:
                lines.append(f"{session_id}:shed:{plan.shed_reason}")
                if want_sessions:
                    sessions.append(
                        {"session_id": session_id, "outcome": outcome,
                         "shed_reason": plan.shed_reason}
                    )
            continue
        trace = report.trace_for(session_id)
        delivery = deliveries[f"abr-{session_id}"]
        decode_outcomes[delivery["decode_outcome"]] += 1
        rung_path = "".join(str(rung) for rung in trace.rungs)
        lines.append(
            f"{session_id}:{outcome}:{rung_path}:"
            f"{delivery['stream_digest']}:{delivery['frames_digest']}:"
            f"{trace.rebuffer_vms:.6f}:{trace.psnr_db:.4f}"
        )
        if want_sessions:
            sessions.append(
                {
                    "session_id": session_id,
                    "outcome": outcome,
                    "rungs": list(trace.rungs),
                    "dominant_rung": dominant[session_id],
                    "rescued": trace.rescued,
                    "startup_vms": trace.startup_vms,
                    "rebuffer_vms": trace.rebuffer_vms,
                    "rebuffer_events": trace.rebuffer_events,
                    "switches": [trace.switch_up, trace.switch_down],
                    "psnr_db": trace.psnr_db,
                    "decode_outcome": delivery["decode_outcome"],
                    "stream_digest": delivery["stream_digest"],
                    "frames_digest": delivery["frames_digest"],
                }
            )

    offered = schedule.offered
    record = {
        "cell_id": cell.cell_id,
        "n_sessions": cell.n_sessions,
        "seed": cell.seed,
        "bandwidth_kbps": cell.bandwidth_kbps,
        "profile": cell.profile,
        "policy": cell.policy,
        "fault_intensity": ABR_FAULT_INTENSITY,
        "recovery_policy": ABR_RECOVERY_POLICY,
        "outcomes": {
            "offered": offered,
            **{key: report.outcomes[key] for key in ABR_OUTCOMES},
            "shed_reasons": dict(report.shed_reasons),
            "quarantine_reasons": dict(recovery.quarantine_reasons),
        },
        "abr": {
            "delivered": report.delivered,
            "availability": round(report.delivered / offered, 6)
            if offered else 1.0,
            "rescued": report.rescued,
            "rebuffer_ratio": report.rebuffer_ratio,
            "rebuffer_events": report.rebuffer_events,
            "switch_up": report.switch_up,
            "switch_down": report.switch_down,
            "switch_rate": report.switch_rate,
            "mean_rung": report.mean_rung,
        },
        "quality": {
            "mean_psnr_db": report.mean_psnr_db,
            "decode_outcomes": decode_outcomes,
        },
        "ladder": [
            {
                "name": rung_spec.name,
                "scale": rung_spec.scale,
                "qp": rung_spec.qp,
            }
            for rung_spec in ladder
        ],
        "fleet_digest": sha256_hex("\n".join(lines).encode("utf-8")),
    }
    if want_sessions:
        record["sessions"] = sessions
    return record, cell_wall(
        cell, backend, jobs, wall_s, report.delivered,
        controller_wall_s=round(controller_wall_s, 6),
    )


def run_abr_sweep(
    run_dir: str | Path,
    ns=(ABR_DEFAULT_N,),
    seeds=DEFAULT_SEEDS,
    bandwidths=DEFAULT_BANDWIDTHS_KBPS,
    profiles=DEFAULT_PROFILES,
    policies=ABR_POLICY_LADDER,
    config: ServiceConfig = ABR_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
    resume: bool = False,
    ladder: tuple | None = None,
) -> dict:
    """Run (or finish) an ABR sweep; returns the summary dict."""
    return sweep.run_grid(
        "abrstudy", run_dir,
        abr_grid_cells(ns, seeds, bandwidths, profiles, policies),
        lambda cell: run_abr_cell(cell, config, backend, jobs, ladder),
        lambda run_dir: summarize_abr(
            run_dir, ns, seeds, bandwidths, profiles, policies
        ),
        render_abr_summary, resume,
    )


def summarize_abr(
    run_dir: str | Path, ns, seeds, bandwidths, profiles, policies
) -> dict:
    """Aggregate published cells into the quality-vs-provisioning curve,
    one row per (bandwidth, profile, policy) point."""
    rows = []
    missing: list[str] = []
    for bandwidth in bandwidths:
        for profile in profiles:
            for policy in policies:
                records, absent = sweep.load_cells(
                    run_dir,
                    abr_grid_cells(ns, seeds, (bandwidth,), (profile,),
                                   (policy,)),
                )
                missing += absent
                if not records:
                    continue
                k = len(records)
                rows.append(
                    {
                        "bandwidth_kbps": bandwidth,
                        "profile": profile,
                        "policy": policy,
                        "cells": k,
                        "outcomes": {
                            key: sum(r["outcomes"][key] for r in records)
                            for key in ("offered",) + ABR_OUTCOMES
                        },
                        "availability": round(
                            sum(r["abr"]["availability"] for r in records) / k,
                            6,
                        ),
                        "rebuffer_ratio": round(
                            sum(r["abr"]["rebuffer_ratio"] for r in records)
                            / k, 6
                        ),
                        "rebuffer_events": sum(
                            r["abr"]["rebuffer_events"] for r in records
                        ),
                        "switch_rate": round(
                            sum(r["abr"]["switch_rate"] for r in records) / k,
                            6,
                        ),
                        "rescued": sum(r["abr"]["rescued"] for r in records),
                        "mean_rung": round(
                            sum(r["abr"]["mean_rung"] for r in records) / k, 4
                        ),
                        "mean_psnr_db": round(
                            sum(r["quality"]["mean_psnr_db"] for r in records)
                            / k, 4
                        ),
                        "fleet_digests": [r["fleet_digest"] for r in records],
                    }
                )
    return {
        "schema": SCHEMA_ABRSTUDY,
        "version": 1,
        "grid": {
            "ns": list(ns),
            "seeds": list(seeds),
            "bandwidths_kbps": list(bandwidths),
            "profiles": list(profiles),
            "policies": list(policies),
        },
        "rows": rows,
        "missing_cells": sorted(missing),
    }


def render_abr_summary(summary: dict) -> str:
    """Plain-text quality-vs-provisioning table (the study artifact)."""
    header = (
        f"{'kbps':>5} {'profile':>10} {'policy':>11} {'srv':>4} {'rtry':>4} "
        f"{'degr':>4} {'swd':>4} {'rebuf':>5} {'shed':>4} {'quar':>4}  "
        f"{'resc':>4} {'rebuf%':>7} {'sw/sess':>7} {'rung':>5} {'PSNR dB':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in summary["rows"]:
        outcomes = row["outcomes"]
        lines.append(
            f"{row['bandwidth_kbps']:>5} {row['profile']:>10} "
            f"{row['policy']:>11} {outcomes['served']:>4} "
            f"{outcomes['served_retry']:>4} {outcomes['degraded']:>4} "
            f"{outcomes['switched_down']:>4} {outcomes['rebuffered']:>5} "
            f"{outcomes['shed']:>4} {outcomes['quarantined']:>4}  "
            f"{row['rescued']:>4} {100 * row['rebuffer_ratio']:>6.2f}% "
            f"{row['switch_rate']:>7.3f} {row['mean_rung']:>5.2f} "
            f"{row['mean_psnr_db']:>8.2f}"
        )
    lines.append("")
    lines.append(
        "swd/rebuf = sessions delivered via down-switch / with a stall;"
        " resc = deadline sheds rescued at the bottom rung;"
        " rebuf% = stalled share of playback; rung = mean rendition index"
    )
    return "\n".join(lines)
