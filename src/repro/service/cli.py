"""CLI entry points: ``repro serve`` / ``repro faultstudy`` / ``repro abrstudy``.

.. code-block:: console

   $ python -m repro serve                          # scale study: N = 10/100/1000
   $ python -m repro serve --sessions 32 --seed 4   # one 32-session cell
   $ python -m repro serve --full                   # adds the 10k cell (slow)
   $ python -m repro serve --backend fleet --jobs 4 # supervised worker pool
   $ python -m repro serve --resume drill           # finish a killed run
   $ python -m repro serve --verify-complete        # exit 1 on missing cells

   $ python -m repro faultstudy                     # availability vs intensity
   $ python -m repro faultstudy --smoke             # CI grid (2 intensities)
   $ python -m repro faultstudy --intensity 0 0.6 --policy retry full
   $ python -m repro faultstudy --resume drill      # finish a killed sweep

   $ python -m repro abrstudy                       # quality vs bandwidth
   $ python -m repro abrstudy --smoke               # CI grid (step_drop only)
   $ python -m repro abrstudy --bandwidth 16 36 --policy fixed hybrid

Published study tables are byte-identical for a given grid whatever the
backend or job count; wall-clock throughput lands in
``telemetry/wall.json`` next to the run, never in the tables.

Argument validation beyond what ``argparse`` types give us raises
:class:`CliArgumentError`; every entry point renders it as a one-line
``error: ...`` message and exits 2, never a traceback.
"""

from __future__ import annotations

import argparse

from repro.core.runner import sweep

__all__ = [
    "CliArgumentError",
    "serve_main",
    "faultstudy_main",
    "abrstudy_main",
]


class CliArgumentError(ValueError):
    """A CLI argument that parses but is semantically invalid.

    Typed (rather than a bare ``print`` + return) so library callers and
    tests can assert on the failure mode, and so every entry point
    renders rejection identically: one line on stdout, exit code 2.
    """


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CliArgumentError(message)


def _add_fleet_arguments(parser, default_ns: tuple[int, ...],
                         pipelines: str) -> None:
    """The fleet and backend flags every service study shares."""
    from repro.service.backends import BACKENDS

    parser.add_argument("--sessions", type=int, nargs="+", default=None,
                        metavar="N",
                        help="fleet size(s) "
                             f"(default: {' '.join(map(str, default_ns))})")
    parser.add_argument("--seed", type=int, nargs="+", default=[4],
                        metavar="S", help="fleet seed(s) (default: 4)")
    parser.add_argument("--backend", choices=BACKENDS, default="asyncio",
                        help="execution backend (default: asyncio)")
    parser.add_argument("--jobs", type=int, default=1, metavar="J",
                        help=f"concurrent {pipelines} pipelines (default: 1)")


def _fleet_sizes(args, default: tuple[int, ...]) -> tuple[int, ...]:
    """Check ``--jobs`` and ``--sessions``; returns the fleet sizes."""
    _check(args.jobs >= 1, "--jobs must be >= 1")
    ns = tuple(args.sessions) if args.sessions is not None else default
    _check(all(n > 0 for n in ns), "--sessions must be positive")
    return ns


def serve_main(argv: list[str] | None = None) -> int:
    from repro.service.study import DEFAULT_NS, FULL_NS, run_sweep

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Streaming-service scale study: N concurrent sessions through "
            "the deterministic multiplexer; reports sessions/sec, latency "
            "percentiles, delivered PSNR, and the served/degraded/shed mix."
        ),
    )
    _add_fleet_arguments(parser, DEFAULT_NS, "session")
    parser.add_argument("--full", action="store_true",
                        help="include the 10k-session cell (slow)")
    sweep.add_run_arguments(parser)
    args = parser.parse_args(argv)

    try:
        ns = _fleet_sizes(args, FULL_NS if args.full else DEFAULT_NS)
    except CliArgumentError as exc:
        print(f"error: {exc}")
        return 2

    return sweep.run_from_cli(
        "serve", "serve study", args,
        lambda run_dir, resume: run_sweep(
            run_dir, ns=ns, seeds=tuple(args.seed), backend=args.backend,
            jobs=args.jobs, resume=resume,
        ),
        f", backend={args.backend}, jobs={args.jobs}",
    )


def abrstudy_main(argv: list[str] | None = None) -> int:
    from repro.codec.renditions import DEFAULT_LADDER, LADDER_BY_NAME
    from repro.service.abr import ABR_POLICY_LADDER
    from repro.service.abrstudy import (
        ABR_DEFAULT_N,
        ABR_SMOKE_N,
        DEFAULT_BANDWIDTHS_KBPS,
        DEFAULT_PROFILES,
        SMOKE_BANDWIDTHS_KBPS,
        SMOKE_PROFILES,
        run_abr_sweep,
    )
    from repro.transport.bandwidth import PROFILE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro abrstudy",
        description=(
            "Adaptive-bitrate study: sweep delivered PSNR, rebuffer "
            "ratio, and switch rate against provisioned bandwidth "
            "across channel-capacity profiles (steady / step_drop / "
            "walk) and the ABR-policy ladder "
            "(fixed / buffer / throughput / hybrid)."
        ),
    )
    _add_fleet_arguments(parser, (ABR_DEFAULT_N,), "delivery")
    parser.add_argument("--bandwidth", type=int, nargs="+", default=None,
                        metavar="KBPS",
                        help="provisioned bandwidths in kbit/s (default: "
                             f"{' '.join(map(str, DEFAULT_BANDWIDTHS_KBPS))})")
    parser.add_argument("--profile", nargs="+", choices=PROFILE_NAMES,
                        default=None,
                        help="channel capacity profiles (default: all)")
    parser.add_argument("--policy", nargs="+", choices=ABR_POLICY_LADDER,
                        default=None,
                        help="ABR policies (default: the full ladder)")
    parser.add_argument("--ladder", nargs="*", default=None, metavar="NAME",
                        help="rendition subset to offer (default: "
                             f"{' '.join(s.name for s in DEFAULT_LADDER)}); "
                             "runs with a custom ladder must use their own "
                             "--run-id (the ladder is not in the cell id)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke grid: "
                             f"{ABR_SMOKE_N} sessions, bandwidths "
                             f"{' '.join(map(str, SMOKE_BANDWIDTHS_KBPS))}, "
                             f"profile {SMOKE_PROFILES[0]}")
    sweep.add_run_arguments(parser)
    args = parser.parse_args(argv)

    try:
        ns = _fleet_sizes(
            args, (ABR_SMOKE_N,) if args.smoke else (ABR_DEFAULT_N,)
        )
        bandwidths = tuple(args.bandwidth) if args.bandwidth is not None else (
            SMOKE_BANDWIDTHS_KBPS if args.smoke else DEFAULT_BANDWIDTHS_KBPS
        )
        _check(all(b > 0 for b in bandwidths),
               "--bandwidth values must be positive kbit/s")
        profiles = tuple(args.profile) if args.profile else (
            SMOKE_PROFILES if args.smoke else DEFAULT_PROFILES
        )
        policies = tuple(args.policy) if args.policy else ABR_POLICY_LADDER
        if args.ladder is None:
            ladder = None
        else:
            _check(len(args.ladder) > 0, "--ladder must not be empty")
            unknown = [name for name in args.ladder
                       if name not in LADDER_BY_NAME]
            _check(not unknown,
                   f"unknown rendition(s): {', '.join(unknown)} "
                   f"(choose from {', '.join(s.name for s in DEFAULT_LADDER)})")
            # Offer the subset in ladder (ascending-quality) order.
            ladder = tuple(
                spec for spec in DEFAULT_LADDER if spec.name in set(args.ladder)
            )
    except CliArgumentError as exc:
        print(f"error: {exc}")
        return 2

    return sweep.run_from_cli(
        "abrstudy", "ABR study", args,
        lambda run_dir, resume: run_abr_sweep(
            run_dir, ns=ns, seeds=tuple(args.seed), bandwidths=bandwidths,
            profiles=profiles, policies=policies, backend=args.backend,
            jobs=args.jobs, resume=resume, ladder=ladder,
        ),
        f", backend={args.backend}, jobs={args.jobs}",
    )


def faultstudy_main(argv: list[str] | None = None) -> int:
    from repro.service.recovery import POLICY_LADDER
    from repro.service.study import (
        DEFAULT_INTENSITIES,
        FAULT_DEFAULT_N,
        FAULT_SMOKE_N,
        SMOKE_INTENSITIES,
        run_fault_sweep,
    )

    parser = argparse.ArgumentParser(
        prog="repro faultstudy",
        description=(
            "Fault-injection study: sweep availability, virtual MTTR, "
            "retry amplification, and delivered PSNR against fault "
            "intensity across the recovery-policy ladder "
            "(none / retry / retry_breaker / full)."
        ),
    )
    _add_fleet_arguments(parser, (FAULT_DEFAULT_N,), "session")
    parser.add_argument("--intensity", type=float, nargs="+", default=None,
                        metavar="I",
                        help="fault intensities in [0, 1] (default: "
                             f"{' '.join(map(str, DEFAULT_INTENSITIES))})")
    parser.add_argument("--policy", nargs="+", choices=POLICY_LADDER,
                        default=None,
                        help="recovery policies (default: the full ladder)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke grid: "
                             f"{FAULT_SMOKE_N} sessions, intensities "
                             f"{' '.join(map(str, SMOKE_INTENSITIES))}")
    sweep.add_run_arguments(parser)
    args = parser.parse_args(argv)

    try:
        ns = _fleet_sizes(
            args, (FAULT_SMOKE_N,) if args.smoke else (FAULT_DEFAULT_N,)
        )
        intensities = tuple(args.intensity) if args.intensity is not None else (
            SMOKE_INTENSITIES if args.smoke else DEFAULT_INTENSITIES
        )
        _check(all(0.0 <= i <= 1.0 for i in intensities),
               "--intensity values must be in [0, 1]")
        policies = tuple(args.policy) if args.policy else POLICY_LADDER
    except CliArgumentError as exc:
        print(f"error: {exc}")
        return 2

    return sweep.run_from_cli(
        "faultstudy", "fault study", args,
        lambda run_dir, resume: run_fault_sweep(
            run_dir, ns=ns, seeds=tuple(args.seed), intensities=intensities,
            policies=policies, backend=args.backend, jobs=args.jobs,
            resume=resume,
        ),
        f", backend={args.backend}, jobs={args.jobs}",
    )
