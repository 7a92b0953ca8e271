"""CLI entry point: ``python -m repro resilience``.

.. code-block:: console

   $ python -m repro resilience                       # full PSNR-vs-loss sweep
   $ python -m repro resilience --smoke               # CI-sized grid, no traces
   $ python -m repro resilience --run-id drill        # name the run directory
   $ python -m repro resilience --resume drill        # finish a killed run
   $ python -m repro resilience --verify-complete     # exit 1 on missing cells
"""

from __future__ import annotations

import argparse

from repro.core.runner import sweep


def resilience_main(argv: list[str] | None = None) -> int:
    from repro.transport.study import (
        DEFAULT_LOSSES,
        DEFAULT_SEEDS,
        RESILIENCE_CONFIGS,
        SMOKE_LOSSES,
        SMOKE_SEEDS,
        run_sweep,
    )

    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description=(
            "PSNR-vs-loss resilience study: resync / data partitioning / "
            "RVLC / FEC configurations through a seeded burst-loss channel."
        ),
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized grid (~50 seeded loss cases), "
                             "no counter traces")
    parser.add_argument("--configs", default=None, metavar="A,B",
                        help="comma-separated subset of: "
                             + ", ".join(RESILIENCE_CONFIGS))
    parser.add_argument("--no-trace", action="store_true",
                        help="skip memory-hierarchy counter traces")
    sweep.add_run_arguments(parser)
    args = parser.parse_args(argv)

    configs = None
    if args.configs:
        configs = [name.strip() for name in args.configs.split(",") if name.strip()]
        unknown = [name for name in configs if name not in RESILIENCE_CONFIGS]
        if unknown:
            print(f"error: unknown config(s) {', '.join(unknown)}; "
                  f"choose from {', '.join(RESILIENCE_CONFIGS)}")
            return 2

    return sweep.run_from_cli(
        "resilience", "resilience sweep", args,
        lambda run_dir, resume: run_sweep(
            run_dir,
            losses=SMOKE_LOSSES if args.smoke else DEFAULT_LOSSES,
            seeds=SMOKE_SEEDS if args.smoke else DEFAULT_SEEDS,
            configs=configs,
            resume=resume,
            trace_counters=not (args.smoke or args.no_trace),
        ),
    )
