"""Streaming-service studies: ``repro serve`` and ``repro faultstudy``.

The *scale* study (``repro serve``) sweeps fleet sizes and reports, per
N: sessions/sec, latency percentiles (p50/p95/p99, from the repo's
fixed-bucket histogram machinery), delivered PSNR, the
served/degraded/shed outcome mix, and cross-session bitrate burstiness
(the Table 8 aggregation lifted from one stream to a fleet).

The *fault* study (``repro faultstudy``) holds the fleet fixed and
sweeps fault intensity against the recovery-policy ladder
(none / retry / retry+breaker / full), reporting the extended outcome
taxonomy with its conservation law, availability, virtual MTTR, retry
amplification, and delivered PSNR -- the availability-vs-provisioning
question asked the way the paper asks PSNR-vs-loss.

Reproducibility contract, identical to the resilience study's: every
cell is a pure function of its grid coordinates and the config --
latencies are *virtual* milliseconds from the deterministic scheduler
and recovery timeline, never wall-clock -- so two runs, a run and its
``--resume``, and runs at different ``--jobs``/backends are
byte-identical.  :mod:`repro.core.runner.sweep` publishes the cells
atomically with content digests; wall-clock throughput (which *does*
vary run to run) goes to a separate, never-diffed telemetry sidecar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.runner import sweep
from repro.ioutil import sha256_hex
from repro.obs.metrics import Histogram
from repro.service.backends import execute_schedule
from repro.service.config import DEFAULT_CONFIG, ServiceConfig
from repro.service.faults import FaultConfig, FaultPlan
from repro.service.recovery import (
    POLICIES,
    POLICY_LADDER,
    QUARANTINE_REASONS,
    simulate_recovery,
)
from repro.service.scheduler import (
    OUTCOME_DEGRADED,
    OUTCOME_QUARANTINED,
    OUTCOME_SERVED,
    OUTCOME_SERVED_RETRY,
    SHED_REASONS,
    schedule_fleet,
)
from repro.service.session import build_fleet

__all__ = [
    "DEFAULT_NS",
    "FULL_NS",
    "SMOKE_NS",
    "DEFAULT_SEEDS",
    "ServeCell",
    "run_cell",
    "run_sweep",
    "summarize",
    "render_summary",
    "FAULT_DEFAULT_N",
    "FAULT_SMOKE_N",
    "DEFAULT_INTENSITIES",
    "SMOKE_INTENSITIES",
    "FaultCell",
    "fault_grid_cells",
    "run_fault_cell",
    "run_fault_sweep",
    "summarize_faults",
    "render_fault_summary",
]

#: Fleet sizes of the default scale study (the slow sweep adds 10k).
DEFAULT_NS = (10, 100, 1000)
FULL_NS = (10, 100, 1000, 10000)
#: CI smoke: one 32-session cell.
SMOKE_NS = (32,)
DEFAULT_SEEDS = (4,)

#: Latency histogram boundaries in virtual milliseconds: log-spaced to
#: resolve both the uncontended (~tens of vms) and saturated (~deadline)
#: regimes.  Fixed buckets keep percentiles deterministic and mergeable.
LATENCY_BUCKETS_VMS = (
    1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0,
    150.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Cells up to this many sessions embed the full per-session table.
_SESSION_TABLE_LIMIT = 64


@dataclass(frozen=True)
class ServeCell:
    """One (fleet size, fleet seed) study point."""

    n_sessions: int
    seed: int

    @property
    def cell_id(self) -> str:
        return f"n{self.n_sessions}+s{self.seed}"


def run_cell(
    cell: ServeCell,
    config: ServiceConfig = DEFAULT_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
) -> tuple[dict, dict]:
    """Execute one study point.

    Returns ``(record, wall)``: the deterministic JSON-serializable cell
    record, and the wall-clock telemetry that must stay out of it.
    """
    wall_start = time.perf_counter()
    specs = build_fleet(cell.seed, cell.n_sessions, config)
    schedule = schedule_fleet(specs, config)
    results = execute_schedule(specs, schedule, config, backend, jobs)
    wall_s = time.perf_counter() - wall_start

    latency = Histogram("service.latency_vms", LATENCY_BUCKETS_VMS)
    spec_by_id = {spec.session_id: spec for spec in specs}
    want_sessions = cell.n_sessions <= _SESSION_TABLE_LIMIT
    lines = []
    sessions = []
    psnr_values = []
    bits = []
    end_vms = 0.0
    transport_totals = {
        "n_data_packets": 0, "n_sent_packets": 0, "n_dropped": 0,
        "n_recovered": 0, "n_unrepaired": 0,
    }
    decode_outcomes = {"decoded": 0, "concealed": 0, "rejected": 0}
    for plan in schedule.plans:
        if not plan.admitted:
            lines.append(f"{plan.session_id}:shed:{plan.shed_reason}")
            continue
        result = results[plan.session_id]
        total_vms = round(
            plan.finish_vms - plan.arrival_vms
            + result.transport_vms + result.decode_vms,
            4,
        )
        latency.observe(total_vms)
        end_vms = max(end_vms, plan.finish_vms + result.transport_vms
                      + result.decode_vms)
        psnr_values.append(result.psnr_db)
        bits.append(result.stream_bits)
        decode_outcomes[result.decode_outcome] += 1
        for key in transport_totals:
            transport_totals[key] += getattr(result, key)
        lines.append(
            f"{plan.session_id}:{plan.outcome}:{result.stream_digest}:"
            f"{result.frames_digest}:{total_vms:.4f}:{result.psnr_db:.4f}"
        )
        if want_sessions:
            sessions.append(
                {
                    "session_id": plan.session_id,
                    "outcome": plan.outcome,
                    "shed_reason": None,
                    "loss_rate": spec_by_id[plan.session_id].loss_rate,
                    "latency_vms": {
                        "wait": round(plan.wait_vms, 4),
                        "encode": round(plan.service_vms, 4),
                        "transport": result.transport_vms,
                        "decode": result.decode_vms,
                        "total": total_vms,
                    },
                    "decode_outcome": result.decode_outcome,
                    "psnr_db": result.psnr_db,
                    "stream_digest": result.stream_digest,
                    "frames_digest": result.frames_digest,
                }
            )
    if want_sessions:
        for plan in schedule.plans:
            if not plan.admitted:
                sessions.append(
                    {
                        "session_id": plan.session_id,
                        "outcome": plan.outcome,
                        "shed_reason": plan.shed_reason,
                    }
                )
        sessions.sort(key=lambda s: s["session_id"])

    admitted = schedule.admitted
    window_vms = max(end_vms, config.arrival_window_vms)
    mean_bits = sum(bits) / len(bits) if bits else 0.0
    record = {
        "cell_id": cell.cell_id,
        "n_sessions": cell.n_sessions,
        "seed": cell.seed,
        "outcomes": {
            "offered": schedule.offered,
            "served": schedule.served,
            "degraded": schedule.degraded,
            "shed": schedule.shed,
            "shed_reasons": dict(schedule.shed_reasons),
        },
        "throughput": {
            "sessions_per_vsec": round(admitted / (window_vms / 1000.0), 4)
            if window_vms else 0.0,
            "makespan_vms": round(window_vms, 4),
            "peak_queue_depth": schedule.peak_queue_depth,
        },
        "latency_vms": {
            "p50": round(latency.percentile(50), 4),
            "p95": round(latency.percentile(95), 4),
            "p99": round(latency.percentile(99), 4),
            "mean": round(latency.mean, 4),
            "observations": latency.total,
        },
        "quality": {
            "mean_psnr_db": round(
                sum(psnr_values) / len(psnr_values), 4
            ) if psnr_values else 0.0,
            "decode_outcomes": decode_outcomes,
        },
        "burstiness": {
            "mean_stream_bits": round(mean_bits, 1),
            "peak_stream_bits": max(bits) if bits else 0,
            "peak_to_mean": round(max(bits) / mean_bits, 4)
            if mean_bits else 0.0,
        },
        "transport": transport_totals,
        "fleet_digest": sha256_hex("\n".join(lines).encode("utf-8")),
    }
    if want_sessions:
        record["sessions"] = sessions
    return record, cell_wall(cell, backend, jobs, wall_s, admitted)


def cell_wall(cell, backend: str, jobs: int, wall_s: float, sessions: int,
              **extra) -> dict:
    """A service cell's wall-clock telemetry: the sidecar record that
    stays out of the cell's own record."""
    return {
        "cell_id": cell.cell_id,
        "backend": backend,
        "jobs": jobs,
        "wall_s": round(wall_s, 4),
        "sessions_per_wall_sec": round(sessions / wall_s, 2) if wall_s else 0.0,
        **extra,
    }


def grid_cells(ns, seeds) -> list[ServeCell]:
    return [ServeCell(n, seed) for n in ns for seed in seeds]


def run_sweep(
    run_dir: str | Path,
    ns=DEFAULT_NS,
    seeds=DEFAULT_SEEDS,
    config: ServiceConfig = DEFAULT_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
    resume: bool = False,
) -> dict:
    """Run (or finish) a scale sweep; returns the summary dict."""
    return sweep.run_grid(
        "serve", run_dir, grid_cells(ns, seeds),
        lambda cell: run_cell(cell, config, backend, jobs),
        lambda run_dir: summarize(run_dir, ns, seeds),
        render_summary, resume,
    )


def summarize(run_dir: str | Path, ns, seeds) -> dict:
    """Aggregate published cells into the per-N scale curve."""
    rows = []
    missing: list[str] = []
    for n in ns:
        records, absent = sweep.load_cells(run_dir, grid_cells((n,), seeds))
        missing += absent
        if not records:
            continue
        k = len(records)
        shed_reasons = {
            reason: sum(r["outcomes"]["shed_reasons"][reason] for r in records)
            for reason in SHED_REASONS
        }
        rows.append(
            {
                "n_sessions": n,
                "cells": k,
                "offered": sum(r["outcomes"]["offered"] for r in records),
                "served": sum(r["outcomes"]["served"] for r in records),
                "degraded": sum(r["outcomes"]["degraded"] for r in records),
                "shed": sum(r["outcomes"]["shed"] for r in records),
                "shed_reasons": shed_reasons,
                "sessions_per_vsec": round(
                    sum(r["throughput"]["sessions_per_vsec"] for r in records)
                    / k, 4
                ),
                "latency_vms": {
                    p: round(
                        sum(r["latency_vms"][p] for r in records) / k, 4
                    )
                    for p in ("p50", "p95", "p99", "mean")
                },
                "mean_psnr_db": round(
                    sum(r["quality"]["mean_psnr_db"] for r in records) / k, 4
                ),
                "burstiness_peak_to_mean": round(
                    sum(r["burstiness"]["peak_to_mean"] for r in records) / k, 4
                ),
                "fleet_digests": [r["fleet_digest"] for r in records],
            }
        )
    return {
        "format": 1,
        "grid": {"ns": list(ns), "seeds": list(seeds)},
        "rows": rows,
        "missing_cells": sorted(missing),
    }


# ---------------------------------------------------------------------------
# Fault study: availability vs fault intensity across the policy ladder
# ---------------------------------------------------------------------------

#: Fleet size the fault study holds fixed (big enough that per-variant
#: breakers see real failure runs, small enough to stay interactive).
FAULT_DEFAULT_N = 64
FAULT_SMOKE_N = 24
#: Fault intensities swept by default: clean baseline through the regime
#: where breakers trip and brownouts engage.
DEFAULT_INTENSITIES = (0.0, 0.2, 0.4, 0.6)
SMOKE_INTENSITIES = (0.0, 0.6)

#: Cells up to this many sessions embed the full per-session table.
_FAULT_SESSION_TABLE_LIMIT = 64


@dataclass(frozen=True)
class FaultCell:
    """One (fleet size, seed, fault intensity, recovery policy) point."""

    n_sessions: int
    seed: int
    intensity: float
    policy: str

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown recovery policy {self.policy!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity {self.intensity} outside [0, 1]")

    @property
    def cell_id(self) -> str:
        # Intensity as integer percent keeps the id filesystem-safe.
        return (
            f"n{self.n_sessions}+s{self.seed}"
            f"+i{round(self.intensity * 100)}+{self.policy}"
        )


def fault_grid_cells(ns, seeds, intensities, policies) -> list[FaultCell]:
    return [
        FaultCell(n, seed, intensity, policy)
        for n in ns
        for seed in seeds
        for intensity in intensities
        for policy in policies
    ]


def run_fault_cell(
    cell: FaultCell,
    config: ServiceConfig = DEFAULT_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
) -> tuple[dict, dict]:
    """Execute one fault-study point.

    Returns ``(record, wall)`` like :func:`run_cell`; ``wall`` also
    carries the recovery plane's own wall share (``recovery_wall_s``),
    which the perf suite holds under 2% of the cell.
    """
    wall_start = time.perf_counter()
    specs = build_fleet(cell.seed, cell.n_sessions, config)
    schedule = schedule_fleet(specs, config)
    plan = FaultPlan(cell.seed, FaultConfig(intensity=cell.intensity))
    policy = POLICIES[cell.policy]
    recovery_start = time.perf_counter()
    recovery = simulate_recovery(specs, schedule, plan, policy, config)
    recovery_wall_s = time.perf_counter() - recovery_start
    if not recovery.conserves(schedule):
        raise AssertionError(
            f"outcome conservation violated in {cell.cell_id}: "
            f"{recovery.outcomes} vs {schedule.offered} offered"
        )
    results = execute_schedule(specs, schedule, config, backend, jobs,
                               recovery=recovery)
    wall_s = time.perf_counter() - wall_start

    latency = Histogram("service.fault_latency_vms", LATENCY_BUCKETS_VMS)
    want_sessions = cell.n_sessions <= _FAULT_SESSION_TABLE_LIMIT
    lines = []
    sessions = []
    psnr_values = []
    decode_outcomes = {"decoded": 0, "concealed": 0, "rejected": 0}
    for sched_plan in schedule.plans:
        if not sched_plan.admitted:
            lines.append(
                f"{sched_plan.session_id}:shed:{sched_plan.shed_reason}"
            )
            if want_sessions:
                sessions.append(
                    {
                        "session_id": sched_plan.session_id,
                        "outcome": "shed",
                        "shed_reason": sched_plan.shed_reason,
                    }
                )
            continue
        chain = recovery.chain_for(sched_plan.session_id)
        faults_seen = [
            record.fault for record in chain.attempts if record.fault
        ]
        if not chain.delivered:
            lines.append(
                f"{chain.session_id}:quarantined:{chain.quarantine_reason}:"
                f"a{chain.n_attempts}"
            )
            if want_sessions:
                sessions.append(
                    {
                        "session_id": chain.session_id,
                        "outcome": OUTCOME_QUARANTINED,
                        "quarantine_reason": chain.quarantine_reason,
                        "attempts": chain.n_attempts,
                        "faults": faults_seen,
                    }
                )
            continue
        result = results[chain.session_id]
        total_vms = round(
            chain.finish_vms - sched_plan.arrival_vms
            + result.transport_vms + result.decode_vms,
            4,
        )
        latency.observe(total_vms)
        psnr_values.append(result.psnr_db)
        decode_outcomes[result.decode_outcome] += 1
        lines.append(
            f"{chain.session_id}:{chain.outcome}:a{chain.n_attempts}:"
            f"{result.stream_digest}:{result.frames_digest}:"
            f"{total_vms:.4f}:{result.psnr_db:.4f}"
        )
        if want_sessions:
            sessions.append(
                {
                    "session_id": chain.session_id,
                    "outcome": chain.outcome,
                    "attempts": chain.n_attempts,
                    "faults": faults_seen,
                    "browned_out": chain.browned_out,
                    "latency_vms": total_vms,
                    "decode_outcome": result.decode_outcome,
                    "psnr_db": result.psnr_db,
                    "stream_digest": result.stream_digest,
                    "frames_digest": result.frames_digest,
                }
            )
    record = {
        "cell_id": cell.cell_id,
        "n_sessions": cell.n_sessions,
        "seed": cell.seed,
        "intensity": cell.intensity,
        "policy": cell.policy,
        "outcomes": {
            "offered": schedule.offered,
            "served": recovery.outcomes[OUTCOME_SERVED],
            "served_retry": recovery.outcomes[OUTCOME_SERVED_RETRY],
            "degraded": recovery.outcomes[OUTCOME_DEGRADED],
            "shed": schedule.shed,
            "quarantined": recovery.outcomes[OUTCOME_QUARANTINED],
            "shed_reasons": dict(schedule.shed_reasons),
            "quarantine_reasons": dict(recovery.quarantine_reasons),
        },
        "recovery": {
            "availability": recovery.availability(schedule.offered),
            "mttr_vms": recovery.mttr_vms,
            "retry_amplification": recovery.retry_amplification,
            "total_attempts": recovery.total_attempts,
            "retries": recovery.retries,
            "breaker_fastfails": recovery.fastfails,
            "brownouts": recovery.brownouts,
            "breaker_transitions": {
                str(variant): [[t, frm, to] for t, frm, to in transitions]
                for variant, transitions in recovery.breaker_transitions.items()
            },
        },
        "faults": dict(recovery.fault_counts),
        "latency_vms": {
            "p50": round(latency.percentile(50), 4),
            "p95": round(latency.percentile(95), 4),
            "p99": round(latency.percentile(99), 4),
            "mean": round(latency.mean, 4),
            "observations": latency.total,
        },
        "quality": {
            "mean_psnr_db": round(
                sum(psnr_values) / len(psnr_values), 4
            ) if psnr_values else 0.0,
            "decode_outcomes": decode_outcomes,
        },
        "fleet_digest": sha256_hex("\n".join(lines).encode("utf-8")),
    }
    if want_sessions:
        record["sessions"] = sessions
    return record, cell_wall(
        cell, backend, jobs, wall_s, recovery.delivered,
        recovery_wall_s=round(recovery_wall_s, 6),
    )


def run_fault_sweep(
    run_dir: str | Path,
    ns=(FAULT_DEFAULT_N,),
    seeds=DEFAULT_SEEDS,
    intensities=DEFAULT_INTENSITIES,
    policies=POLICY_LADDER,
    config: ServiceConfig = DEFAULT_CONFIG,
    backend: str = "serial",
    jobs: int = 1,
    resume: bool = False,
) -> dict:
    """Run (or finish) a fault-intensity sweep; returns the summary."""
    return sweep.run_grid(
        "faultstudy", run_dir,
        fault_grid_cells(ns, seeds, intensities, policies),
        lambda cell: run_fault_cell(cell, config, backend, jobs),
        lambda run_dir: summarize_faults(
            run_dir, ns, seeds, intensities, policies
        ),
        render_fault_summary, resume,
    )


def summarize_faults(
    run_dir: str | Path, ns, seeds, intensities, policies
) -> dict:
    """Aggregate published cells into the availability-vs-intensity
    curve, one row per (intensity, policy) rung."""
    rows = []
    missing: list[str] = []
    for intensity in intensities:
        for policy in policies:
            records, absent = sweep.load_cells(
                run_dir, fault_grid_cells(ns, seeds, (intensity,), (policy,))
            )
            missing += absent
            if not records:
                continue
            k = len(records)
            outcome_keys = (
                "offered", "served", "served_retry", "degraded", "shed",
                "quarantined",
            )
            rows.append(
                {
                    "intensity": intensity,
                    "policy": policy,
                    "cells": k,
                    "outcomes": {
                        key: sum(r["outcomes"][key] for r in records)
                        for key in outcome_keys
                    },
                    "quarantine_reasons": {
                        reason: sum(
                            r["outcomes"]["quarantine_reasons"][reason]
                            for r in records
                        )
                        for reason in QUARANTINE_REASONS
                    },
                    "availability": round(
                        sum(r["recovery"]["availability"] for r in records)
                        / k, 6
                    ),
                    "mttr_vms": round(
                        sum(r["recovery"]["mttr_vms"] for r in records) / k, 4
                    ),
                    "retry_amplification": round(
                        sum(
                            r["recovery"]["retry_amplification"]
                            for r in records
                        ) / k, 4
                    ),
                    "breaker_fastfails": sum(
                        r["recovery"]["breaker_fastfails"] for r in records
                    ),
                    "brownouts": sum(
                        r["recovery"]["brownouts"] for r in records
                    ),
                    "mean_psnr_db": round(
                        sum(r["quality"]["mean_psnr_db"] for r in records)
                        / k, 4
                    ),
                    "p99_latency_vms": round(
                        sum(r["latency_vms"]["p99"] for r in records) / k, 4
                    ),
                    "fleet_digests": [r["fleet_digest"] for r in records],
                }
            )
    return {
        "schema": "repro-faultstudy",
        "version": 1,
        "grid": {
            "ns": list(ns),
            "seeds": list(seeds),
            "intensities": list(intensities),
            "policies": list(policies),
        },
        "rows": rows,
        "missing_cells": sorted(missing),
    }


def render_fault_summary(summary: dict) -> str:
    """Plain-text policy-ladder table (the study artifact)."""
    header = (
        f"{'fault':>6} {'policy':>14} {'avail':>7} {'srv':>5} {'rtry':>5} "
        f"{'degr':>5} {'shed':>5} {'quar':>5}  {'MTTR':>8} {'amp':>6} "
        f"{'ff':>4} {'brn':>4}  {'PSNR dB':>8} {'p99':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in summary["rows"]:
        outcomes = row["outcomes"]
        lines.append(
            f"{row['intensity']:>6.2f} {row['policy']:>14} "
            f"{row['availability']:>7.4f} {outcomes['served']:>5} "
            f"{outcomes['served_retry']:>5} {outcomes['degraded']:>5} "
            f"{outcomes['shed']:>5} {outcomes['quarantined']:>5}  "
            f"{row['mttr_vms']:>8.2f} {row['retry_amplification']:>6.3f} "
            f"{row['breaker_fastfails']:>4} {row['brownouts']:>4}  "
            f"{row['mean_psnr_db']:>8.2f} {row['p99_latency_vms']:>8.2f}"
        )
    lines.append("")
    lines.append(
        "avail = delivered/offered; MTTR in virtual ms (first failure ->"
        " recovery); amp = attempts per admitted session;"
        " ff/brn = breaker fast-fails / brownout attempts"
    )
    return "\n".join(lines)


def render_summary(summary: dict) -> str:
    """Plain-text scale table (the paper-style study artifact)."""
    header = (
        f"{'sessions':>8} {'offered':>8} {'served':>7} {'degr':>6} "
        f"{'shed':>6}  {'shed (q/d/t)':>14} {'sess/s':>8} "
        f"{'p50':>8} {'p95':>8} {'p99':>8}  {'PSNR dB':>8} {'burst':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in summary["rows"]:
        reasons = row["shed_reasons"]
        lat = row["latency_vms"]
        lines.append(
            f"{row['n_sessions']:>8} {row['offered']:>8} {row['served']:>7} "
            f"{row['degraded']:>6} {row['shed']:>6}  "
            f"{reasons['queue_full']:>4}/{reasons['deadline']:>4}/"
            f"{reasons['tokens']:>4} "
            f"{row['sessions_per_vsec']:>8.2f} "
            f"{lat['p50']:>8.2f} {lat['p95']:>8.2f} {lat['p99']:>8.2f}  "
            f"{row['mean_psnr_db']:>8.2f} "
            f"{row['burstiness_peak_to_mean']:>6.2f}"
        )
    lines.append("")
    lines.append(
        "latency percentiles in virtual ms (admit wait + encode + transport"
        " + decode); shed reasons: queue_full/deadline/tokens"
    )
    return "\n".join(lines)
