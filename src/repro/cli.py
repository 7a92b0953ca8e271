"""Command-line entry point: ``python -m repro <experiment> [...]``.

Regenerates paper artifacts from the shell:

.. code-block:: console

   $ python -m repro table5                 # one table, default scale
   $ python -m repro fig2 --scale quick     # one figure, fast
   $ python -m repro all --scale paper      # everything, 30-frame runs
   $ python -m repro list                   # what can be regenerated
   $ python -m repro conformance --check    # golden-vector gate
   $ python -m repro fuzz --cases 150       # corruption smoke sweep
   $ python -m repro study --grid tables    # crash-safe, resumable study
   $ python -m repro study --resume <id>    # finish a killed run
   $ python -m repro chaos --cases 100      # seeded fault-injection sweep
   $ python -m repro resilience --smoke     # PSNR-vs-loss transport study
   $ python -m repro serve --sessions 32    # streaming-service scale study
   $ python -m repro faultstudy --smoke     # availability vs fault intensity
   $ python -m repro abrstudy --smoke       # ABR quality vs provisioned bw
   $ python -m repro bench codec            # engine throughput benchmark
   $ python -m repro profile encode         # traced run + per-stage table
   $ python -m repro obs report --trace obs-profile/trace.jsonl
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    from repro.core.experiments import SCALES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate tables/figures of 'An MPEG-4 Performance Study for "
            "non-SIMD, General Purpose Architectures' (ISPASS 2003)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (table1..table8, fig2..fig4), 'all', 'list', "
            "'conformance', 'fuzz', 'study', 'chaos', 'resilience', 'serve', "
            "'faultstudy', 'abrstudy', 'bench', 'profile', or 'obs'"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="tracing effort preset (default: default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="replay worker processes per cell (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="simulation engine (default: $REPRO_ENGINE or 'fast')",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="persist recorded traces under DIR (default: $REPRO_TRACE_CACHE)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    import os

    if argv is None:
        argv = sys.argv[1:]
    # The conformance tools own their argument grammar; dispatch before
    # the experiment parser sees (and rejects) their flags.
    if argv and argv[0] == "conformance":
        from repro.conformance.cli import conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.conformance.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "study":
        from repro.core.runner.cli import study_main

        return study_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.core.runner.cli import chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "resilience":
        from repro.transport.cli import resilience_main

        return resilience_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "faultstudy":
        from repro.service.cli import faultstudy_main

        return faultstudy_main(argv[1:])
    if argv and argv[0] == "abrstudy":
        from repro.service.cli import abrstudy_main

        return abrstudy_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.codec.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.obs.cli import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    from repro.core.experiments import EXPERIMENTS, SCALES, StudyRunner, run_experiment

    args = build_parser().parse_args(argv)
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine
    if args.trace_cache is not None:
        os.environ["REPRO_TRACE_CACHE"] = args.trace_cache
    if args.experiment == "list":
        for experiment_id in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[experiment_id].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{experiment_id:<8} {summary}")
        return 0
    runner = StudyRunner(SCALES[args.scale], jobs=args.jobs)
    if args.experiment == "all":
        experiment_ids = sorted(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        experiment_ids = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr
        )
        return 2
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, runner)
        print(result.text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
