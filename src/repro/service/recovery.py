"""The recovery control plane: timeouts, retries, breakers, quarantine.

``service/faults.py`` decides *what breaks*; this module decides *what
the service does about it*, entirely in virtual time.  Given the
admission schedule and a fault plan, :func:`simulate_recovery` runs a
discrete-event timeline over every admitted session's attempt chain:

- **timeout** -- an attempt that exceeds ``timeout_factor`` times its
  service budget is declared dead (this is what cuts stalls short);
- **retry** -- a failed session is retried after seeded exponential
  backoff with bounded jitter, on a fresh channel seed;
- **quarantine** -- a session is abandoned after ``K`` consecutive
  failures, after exhausting its retry budget, or past the recovery
  horizon; quarantine is loud (a terminal outcome with a reason), never
  a silent drop;
- **circuit breaker** -- per scene *variant*: enough consecutive
  failures open the breaker and further attempts on that variant
  fail fast (no service time burned) until a cooldown expires, then a
  half-open probe decides between closing and re-opening;
- **brownout** -- the rung below the admission ladder's degrade: while
  a variant's breaker is half-open, its attempts run at the degraded
  quality rung, so recovery probes cost half the work.

Every decision is made on the virtual timeline from seeded draws, so the
refined outcome taxonomy -- ``served``, ``served_retry``, ``degraded``,
``shed``, ``quarantined`` -- its conservation law, and the availability
/ MTTR / retry-amplification accounting are byte-identical across
execution backends, ``--jobs`` counts, ``--resume``, and chaos reruns.
Only sessions whose *final* attempt succeeds reach the data plane, with
that attempt's channel seed and blackout window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import obs
from repro.service.config import MODE_DEGRADED, MODE_FULL, ServiceConfig
from repro.service.faults import FaultPlan
from repro.service.scheduler import (
    OUTCOME_DEGRADED,
    OUTCOME_QUARANTINED,
    OUTCOME_SERVED,
    OUTCOME_SERVED_RETRY,
    FleetSchedule,
)
from repro.service.seeding import backoff_jitter_u, retry_channel_seed
from repro.service.session import SessionSpec

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "QUARANTINE_REASONS",
    "POLICY_LADDER",
    "POLICIES",
    "RecoveryPolicy",
    "CircuitBreaker",
    "AttemptRecord",
    "SessionChain",
    "RecoveryReport",
    "backoff_base_vms",
    "backoff_delay_vms",
    "simulate_recovery",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Why a session was quarantined, in check order.
QUARANTINE_REASONS = ("consecutive", "exhausted", "horizon")


@dataclass(frozen=True)
class RecoveryPolicy:
    """One rung of the recovery-policy ladder."""

    name: str
    #: Attempt timeout as a multiple of the mode's service time; None
    #: disables timeouts (stalls run their full course).
    timeout_factor: float | None = None
    #: Retries after the first attempt (0 = fail once, quarantine).
    max_retries: int = 0
    backoff_base_vms: float = 8.0
    backoff_cap_vms: float = 64.0
    #: Jitter fraction: a delay is scaled by ``1 + jitter * u``, u in
    #: [0, 1).  Bounded by 1 so the un-jittered doubling still dominates.
    backoff_jitter: float = 0.5
    #: Quarantine after this many consecutive failures (None = only on
    #: retry exhaustion).
    quarantine_threshold: int | None = None
    #: Per-variant circuit breaker: consecutive service failures that
    #: open it (None = no breaker).
    breaker_threshold: int | None = None
    breaker_cooldown_vms: float = 150.0
    #: Brownout rung: run attempts at the degraded quality rung while
    #: the variant's breaker is half-open.
    brownout: bool = False

    def __post_init__(self) -> None:
        if self.timeout_factor is not None and self.timeout_factor <= 1.0:
            raise ValueError("timeout_factor must exceed 1 service time")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_vms <= 0 or self.backoff_cap_vms < self.backoff_base_vms:
            raise ValueError("backoff cap must be >= base > 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.quarantine_threshold is not None and self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_vms <= 0:
            raise ValueError("breaker_cooldown_vms must be positive")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def timeout_vms(self, config: ServiceConfig, mode: str) -> float | None:
        if self.timeout_factor is None:
            return None
        return self.timeout_factor * config.service_vms(mode)


#: The policy ladder the fault study compares, weakest first.
POLICIES = {
    "none": RecoveryPolicy("none"),
    "retry": RecoveryPolicy(
        "retry", timeout_factor=3.0, max_retries=3,
    ),
    "retry_breaker": RecoveryPolicy(
        "retry_breaker", timeout_factor=3.0, max_retries=3,
        breaker_threshold=4,
    ),
    "full": RecoveryPolicy(
        "full", timeout_factor=3.0, max_retries=3,
        quarantine_threshold=3, breaker_threshold=4, brownout=True,
    ),
}
POLICY_LADDER = ("none", "retry", "retry_breaker", "full")


def backoff_base_vms(policy: RecoveryPolicy, retry_index: int) -> float:
    """Un-jittered delay before retry ``retry_index`` (1-based):
    exponential doubling, capped."""
    if retry_index < 1:
        raise ValueError("retry_index is 1-based")
    return min(
        policy.backoff_cap_vms,
        policy.backoff_base_vms * 2.0 ** (retry_index - 1),
    )


def backoff_delay_vms(
    policy: RecoveryPolicy, fleet_seed: int, session_id: int, retry_index: int
) -> float:
    """Seeded, jittered backoff delay before retry ``retry_index``.

    The jitter draw is a pure function of ``(fleet_seed, session_id,
    retry_index)`` and the delay stays within ``[base, base * (1 +
    jitter)]`` -- the bounds the hypothesis suite pins.
    """
    base = backoff_base_vms(policy, retry_index)
    u = backoff_jitter_u(fleet_seed, session_id, retry_index)
    return round(base * (1.0 + policy.backoff_jitter * u), 6)


class CircuitBreaker:
    """Per-variant breaker over the virtual timeline.

    Closed counts consecutive service failures; at the threshold it
    opens (attempts fail fast), after ``cooldown_vms`` it half-opens
    (probes allowed), and the probe's outcome closes or re-opens it.
    ``state_at`` must be queried with non-decreasing times -- the
    discrete-event loop guarantees that -- and lazily records the
    open -> half-open promotion, so the transition log is in time order
    and an open breaker can never outlast its cooldown (the no-stuck-
    open property).
    """

    def __init__(self, threshold: int, cooldown_vms: float, key: str = "") -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_vms <= 0:
            raise ValueError("cooldown_vms must be positive")
        self.threshold = threshold
        self.cooldown_vms = cooldown_vms
        self.key = key
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.transitions: list[tuple[float, str, str]] = []

    def _transition(self, now: float, state: str) -> None:
        previous, self.state = self.state, state
        self.transitions.append((round(now, 6), previous, state))
        obs.counter_add("service.breaker.transitions")
        with obs.span(
            "service.breaker.transition",
            variant=self.key, frm=previous, to=state, t_vms=round(now, 6),
        ):
            pass

    def state_at(self, now: float) -> str:
        if (
            self.state == BREAKER_OPEN
            and now >= self.opened_at + self.cooldown_vms
        ):
            self._transition(now, BREAKER_HALF_OPEN)
        return self.state

    def record_failure(self, now: float) -> None:
        state = self.state_at(now)
        self.consecutive_failures += 1
        if state == BREAKER_HALF_OPEN or (
            state == BREAKER_CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.opened_at = now
            self._transition(now, BREAKER_OPEN)

    def record_success(self, now: float) -> None:
        state = self.state_at(now)
        self.consecutive_failures = 0
        if state != BREAKER_CLOSED:
            self._transition(now, BREAKER_CLOSED)


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt on the virtual timeline."""

    attempt: int
    mode: str
    start_vms: float
    end_vms: float
    ok: bool
    #: Fault kind, ``"timeout"``, ``"breaker_open"`` (fast-fail), or
    #: None for a clean attempt.
    fault: str | None = None


@dataclass(frozen=True)
class SessionChain:
    """A session's full recovery history and final verdict."""

    session_id: int
    outcome: str  # served | served_retry | degraded | quarantined
    attempts: tuple[AttemptRecord, ...]
    quarantine_reason: str | None = None
    #: Delivery parameters of the successful final attempt (None when
    #: quarantined): quality mode, channel seed, blackout overlay.
    final_mode: str | None = None
    channel_seed: int | None = None
    blackout: tuple[tuple[int, int], ...] = ()
    browned_out: bool = False

    @property
    def delivered(self) -> bool:
        return self.outcome != OUTCOME_QUARANTINED

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def first_failure_vms(self) -> float | None:
        for record in self.attempts:
            if not record.ok:
                return record.end_vms
        return None

    @property
    def recovered_vms(self) -> float | None:
        """Virtual time from first failure to eventual success."""
        if self.outcome != OUTCOME_SERVED_RETRY:
            return None
        return round(self.attempts[-1].end_vms - self.first_failure_vms, 6)

    @property
    def finish_vms(self) -> float:
        return self.attempts[-1].end_vms


@dataclass
class RecoveryReport:
    """Everything the recovery timeline decided, plus the accounting."""

    policy: str
    chains: list[SessionChain]
    outcomes: dict[str, int]
    quarantine_reasons: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in QUARANTINE_REASONS}
    )
    fault_counts: dict[str, int] = field(default_factory=dict)
    total_attempts: int = 0
    retries: int = 0
    fastfails: int = 0
    brownouts: int = 0
    breaker_transitions: dict[int, list[tuple[float, str, str]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self._by_id = {chain.session_id: chain for chain in self.chains}

    def chain_for(self, session_id: int) -> SessionChain:
        return self._by_id[session_id]

    def delivered_chains(self) -> list[SessionChain]:
        return [chain for chain in self.chains if chain.delivered]

    @property
    def admitted(self) -> int:
        return len(self.chains)

    @property
    def delivered(self) -> int:
        return self.admitted - self.outcomes.get(OUTCOME_QUARANTINED, 0)

    @property
    def retry_amplification(self) -> float:
        """Attempts per admitted session (1.0 = no fault pressure)."""
        if not self.admitted:
            return 1.0
        return round(self.total_attempts / self.admitted, 6)

    @property
    def mttr_vms(self) -> float:
        """Mean virtual time from first failure to recovery, over the
        sessions that did recover (0 when none did)."""
        recovered = [
            chain.recovered_vms
            for chain in self.chains
            if chain.recovered_vms is not None
        ]
        if not recovered:
            return 0.0
        return round(sum(recovered) / len(recovered), 6)

    def availability(self, offered: int) -> float:
        """Delivered sessions over everything offered (shed included)."""
        if not offered:
            return 1.0
        return round(self.delivered / offered, 6)

    def conserves(self, schedule: FleetSchedule) -> bool:
        """The extended conservation law:
        served + served_retry + degraded + shed + quarantined == offered."""
        refined = (
            self.outcomes.get(OUTCOME_SERVED, 0)
            + self.outcomes.get(OUTCOME_SERVED_RETRY, 0)
            + self.outcomes.get(OUTCOME_DEGRADED, 0)
            + self.outcomes.get(OUTCOME_QUARANTINED, 0)
        )
        return (
            refined == schedule.admitted
            and refined + schedule.shed == schedule.offered
            and sum(self.quarantine_reasons.values())
            == self.outcomes.get(OUTCOME_QUARANTINED, 0)
        )


def simulate_recovery(
    specs: list[SessionSpec],
    schedule: FleetSchedule,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    config: ServiceConfig,
) -> RecoveryReport:
    """Run the fault/recovery timeline over every admitted session.

    Retries execute on a recovery lane: they spend real virtual service
    time (counted by retry amplification) but do not push back other
    sessions' admission schedule -- re-running the FIFO server under
    every policy would conflate recovery behaviour with admission
    behaviour, and the study wants them separable.
    """
    by_id = {spec.session_id: spec for spec in specs}
    admitted_plans = [p for p in schedule.plans if p.admitted]
    breakers: dict[int, CircuitBreaker] = {}
    outcomes = {OUTCOME_SERVED: 0, OUTCOME_SERVED_RETRY: 0,
                OUTCOME_DEGRADED: 0, OUTCOME_QUARANTINED: 0}
    quarantine_reasons = {reason: 0 for reason in QUARANTINE_REASONS}
    fault_counts: dict[str, int] = {}
    report_stats = {"attempts": 0, "retries": 0, "fastfails": 0,
                    "brownouts": 0}
    # Mutable per-session chain state.
    attempts: dict[int, list[AttemptRecord]] = {}
    planned_mode: dict[int, str] = {}
    chains: dict[int, SessionChain] = {}

    def breaker_for(variant: int) -> CircuitBreaker | None:
        if policy.breaker_threshold is None:
            return None
        if variant not in breakers:
            breakers[variant] = CircuitBreaker(
                policy.breaker_threshold,
                policy.breaker_cooldown_vms,
                key=str(variant),
            )
        return breakers[variant]

    # Event heap: (time, session_id, attempt, phase) with phase 0 =
    # attempt starts, 1 = attempt resolves.  The tuple order is the
    # deterministic tie-break.
    events: list[tuple[float, int, int, int, tuple]] = []

    def finalize(session_id: int, outcome: str, *, reason: str | None = None,
                 final: AttemptRecord | None = None,
                 blackout: tuple[tuple[int, int], ...] = (),
                 browned_out: bool = False) -> None:
        spec = by_id[session_id]
        channel_seed = None
        if final is not None:
            channel_seed = (
                spec.channel_seed if final.attempt == 1
                else retry_channel_seed(plan.fleet_seed, session_id,
                                        final.attempt)
            )
        outcomes[outcome] += 1
        if reason is not None:
            quarantine_reasons[reason] += 1
        chains[session_id] = SessionChain(
            session_id=session_id,
            outcome=outcome,
            attempts=tuple(attempts[session_id]),
            quarantine_reason=reason,
            final_mode=final.mode if final is not None else None,
            channel_seed=channel_seed,
            blackout=blackout,
            browned_out=browned_out,
        )

    def on_failure(session_id: int, record: AttemptRecord) -> None:
        # A success finalizes the chain, so every recorded attempt so
        # far failed: the whole chain *is* the consecutive-failure run.
        consecutive = len(attempts[session_id])
        if (
            policy.quarantine_threshold is not None
            and consecutive >= policy.quarantine_threshold
        ):
            finalize(session_id, OUTCOME_QUARANTINED, reason="consecutive")
            return
        if record.attempt >= policy.max_attempts:
            finalize(session_id, OUTCOME_QUARANTINED, reason="exhausted")
            return
        retry_index = record.attempt  # 1st retry after attempt 1, etc.
        delay = backoff_delay_vms(
            policy, plan.fleet_seed, session_id, retry_index
        )
        start = round(record.end_vms + delay, 6)
        if start > config.max_recovery_horizon_vms:
            finalize(session_id, OUTCOME_QUARANTINED, reason="horizon")
            return
        report_stats["retries"] += 1
        heapq.heappush(
            events, (start, session_id, record.attempt + 1, 0, ())
        )

    for admitted in admitted_plans:
        planned_mode[admitted.session_id] = admitted.mode
        attempts[admitted.session_id] = []
        heapq.heappush(
            events, (admitted.start_vms, admitted.session_id, 1, 0, ())
        )

    while events:
        now, session_id, attempt, phase, payload = heapq.heappop(events)
        if phase == 0:
            # -- attempt start: breaker gate, fault lookup, duration ----
            spec = by_id[session_id]
            breaker = breaker_for(spec.scene_variant)
            state = (
                breaker.state_at(now) if breaker is not None else BREAKER_CLOSED
            )
            if state == BREAKER_OPEN:
                record = AttemptRecord(
                    attempt, planned_mode[session_id], now, now,
                    ok=False, fault="breaker_open",
                )
                attempts[session_id].append(record)
                report_stats["attempts"] += 1
                report_stats["fastfails"] += 1
                on_failure(session_id, record)
                continue
            mode = planned_mode[session_id]
            browned_out = False
            if state == BREAKER_HALF_OPEN and policy.brownout:
                mode, browned_out = MODE_DEGRADED, True
                report_stats["brownouts"] += 1
            service = config.service_vms(mode)
            timeout = policy.timeout_vms(config, mode)
            fault = plan.fault_for(session_id, attempt)
            if fault is not None:
                fault_counts[fault.kind] = fault_counts.get(fault.kind, 0) + 1
            ok, label, duration, window = _resolve_attempt(
                fault, service, timeout
            )
            end = round(now + duration, 6)
            heapq.heappush(
                events,
                (end, session_id, attempt, 1,
                 (mode, now, ok, label, window, browned_out)),
            )
        else:
            # -- attempt resolution -------------------------------------
            mode, started, ok, label, window, browned_out = payload
            spec = by_id[session_id]
            breaker = breaker_for(spec.scene_variant)
            record = AttemptRecord(
                attempt, mode, round(started, 6), now, ok=ok, fault=label
            )
            attempts[session_id].append(record)
            report_stats["attempts"] += 1
            if ok:
                if breaker is not None:
                    breaker.record_success(now)
                if attempt > 1:
                    outcome = OUTCOME_SERVED_RETRY
                elif mode == MODE_FULL:
                    outcome = OUTCOME_SERVED
                else:
                    outcome = OUTCOME_DEGRADED
                finalize(
                    session_id, outcome, final=record,
                    blackout=(window,) if window else (),
                    browned_out=browned_out,
                )
            else:
                if breaker is not None:
                    breaker.record_failure(now)
                on_failure(session_id, record)

    report = RecoveryReport(
        policy=policy.name,
        chains=[chains[p.session_id] for p in admitted_plans],
        outcomes=outcomes,
        quarantine_reasons=quarantine_reasons,
        fault_counts=dict(sorted(fault_counts.items())),
        total_attempts=report_stats["attempts"],
        retries=report_stats["retries"],
        fastfails=report_stats["fastfails"],
        brownouts=report_stats["brownouts"],
        breaker_transitions={
            variant: list(breaker.transitions)
            for variant, breaker in sorted(breakers.items())
            if breaker.transitions
        },
    )
    obs.counter_add("service.retry.attempts", report.retries)
    obs.counter_add("service.retry.recovered",
                    outcomes[OUTCOME_SERVED_RETRY])
    obs.counter_add("service.quarantined", outcomes[OUTCOME_QUARANTINED])
    obs.counter_add("service.breaker.fastfail", report.fastfails)
    obs.counter_add("service.brownouts", report.brownouts)
    return report


def _resolve_attempt(
    fault, service: float, timeout: float | None
) -> tuple[bool, str | None, float, tuple[int, int] | None]:
    """Model one attempt: ``(ok, label, duration, blackout_window)``.

    A clean attempt takes its service time.  Faults either fail the
    attempt (crash/stall/corrupt/fatal blackout -- stalls detected at
    the timeout when one is set) or degrade it (short blackout, slow).
    """
    if fault is None:
        return True, None, service, None
    if fault.kind == "crash":
        return False, "crash", fault.magnitude * service, None
    if fault.kind == "stall":
        burn = fault.magnitude * service
        if timeout is not None and timeout < burn:
            return False, "timeout", timeout, None
        return False, "stall", burn, None
    if fault.kind == "corrupt":
        return False, "corrupt", service, None
    if fault.kind == "blackout":
        if fault.fatal_blackout:
            return False, "blackout", service, None
        return True, "blackout", service, fault.window
    # slow: pure latency inflation, delivery intact -- unless it blows
    # past the timeout, in which case the watchdog kills it anyway.
    duration = fault.magnitude * service
    if timeout is not None and timeout < duration:
        return False, "timeout", timeout, None
    return True, "slow", duration, None
