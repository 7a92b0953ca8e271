"""Execution backends: run the admitted sessions' pipelines.

The scheduler already decided *what* happens (who is admitted, at which
quality, with what virtual timing) -- and, when a fault plan is armed,
the recovery control plane refined that into per-session attempt chains
(who delivers, at which rung, on which channel seed, through which
blackout window).  A backend only decides *how fast* the corresponding
codec work gets done on the host machine:

- ``serial``  -- in-process loop, the reference;
- ``asyncio`` -- an event loop multiplexing sessions over a bounded
  thread pool (``jobs`` concurrent pipelines);
- ``fleet``   -- the supervised worker pool from ``core/runner``:
  process-level parallelism with heartbeat/watchdog supervision, retry
  on chaos-injected worker kills, and quarantine instead of hangs.

Every backend returns the same mapping ``session_id -> SessionResult``,
and because session execution is a pure function of ``(spec, mode,
config, delivery overrides)``, the results -- digests included -- are
bit-identical across backends and across ``jobs`` counts.  The
differential test suite holds all three to that contract.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.service.config import ServiceConfig
from repro.service.scheduler import FleetSchedule
from repro.service.session import SessionResult, SessionSpec, execute_session

__all__ = ["BACKENDS", "execute_schedule", "run_tasks"]

BACKENDS = ("serial", "asyncio", "fleet")

#: One unit of data-plane work: ``(spec, mode, channel_seed, blackout)``.
_WorkItem = tuple[SessionSpec, str, "int | None", tuple]


def _admitted_work(
    specs: list[SessionSpec], schedule: FleetSchedule, recovery=None
) -> list[_WorkItem]:
    by_id = {spec.session_id: spec for spec in specs}
    if recovery is None:
        return [
            (by_id[plan.session_id], plan.mode, None, ())
            for plan in schedule.plans
            if plan.admitted
        ]
    # Recovery plane armed: only delivering chains reach the data plane,
    # with their final attempt's quality rung and channel overrides.
    return [
        (by_id[chain.session_id], chain.final_mode, chain.channel_seed,
         chain.blackout)
        for chain in recovery.delivered_chains()
    ]


def execute_schedule(
    specs: list[SessionSpec],
    schedule: FleetSchedule,
    config: ServiceConfig,
    backend: str = "serial",
    jobs: int = 1,
    recovery=None,
) -> dict[int, SessionResult]:
    """Execute every delivering session; returns results keyed by id.

    ``recovery`` is an optional :class:`~repro.service.recovery.
    RecoveryReport`; without one, every admitted session delivers on its
    scheduled plan (the plain ``repro serve`` path, byte-identical to
    the pre-fault-plane behaviour).
    """
    work = _admitted_work(specs, schedule, recovery)
    with obs.span("service.fleet.execute", backend=backend, jobs=jobs,
                  sessions=len(work)):
        results = run_tasks(
            [
                (
                    f"session-{spec.session_id}",
                    _execute_session_task,
                    (spec, mode, config, seed, blackout),
                )
                for spec, mode, seed, blackout in work
            ],
            backend,
            jobs,
        )
    return {result.session_id: result for result in results.values()}


def run_tasks(
    tasks: list[tuple[str, "object", tuple]],
    backend: str = "serial",
    jobs: int = 1,
) -> dict[str, object]:
    """Generic fan-out for deterministic data-plane work.

    ``tasks`` are ``(name, fn, args)`` triples -- ``fn`` must be a
    module-level callable (picklable for the fleet backend) that is a
    pure function of its arguments, so every backend and job count
    produces the identical ``name -> result`` mapping.  The ABR study's
    rendition deliveries and :func:`execute_schedule`'s sessions both go
    through here.

    A fleet task that exhausts its retry ladder raises
    ``QuarantinedTaskError`` out of the pool: the enclosing study cell
    fails loudly and is recomputed on ``--resume`` -- never published
    with holes.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if not tasks:
        return {}
    if backend == "serial" or (backend == "asyncio" and jobs <= 1):
        return {name: fn(*args) for name, fn, args in tasks}
    if backend == "asyncio":
        return asyncio.run(_run_tasks_asyncio(tasks, jobs))
    from repro.core.runner.supervisor import SupervisedPool, WorkerBudget

    pool = SupervisedPool(
        max_workers=jobs,
        budget=WorkerBudget(wall_s=120.0, heartbeat_s=30.0),
    )
    return dict(pool.results_or_raise(tasks))


async def _run_tasks_asyncio(
    tasks: list[tuple[str, "object", tuple]], jobs: int
) -> dict[str, object]:
    """Event-loop multiplexing: tasks share a bounded thread pool.

    The semaphore is the wall-clock analogue of the virtual-time encode
    budget -- it bounds concurrency, never outcomes.
    """
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(jobs)
    with ThreadPoolExecutor(max_workers=jobs) as pool:

        async def one(name: str, fn, args) -> tuple[str, object]:
            async with gate:
                return name, await loop.run_in_executor(pool, fn, *args)

        pairs = await asyncio.gather(
            *(one(name, fn, args) for name, fn, args in tasks)
        )
    return dict(pairs)


def _execute_session_task(
    spec: SessionSpec,
    mode: str,
    config: ServiceConfig,
    channel_seed,
    blackout,
) -> SessionResult:
    """Module-level task body so the supervised pool can pickle it."""
    return execute_session(spec, mode, config, channel_seed, blackout)
