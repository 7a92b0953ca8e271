"""Benchmark runner: four workloads, end-to-end and per-layer metrics.

.. code-block:: console

   $ python bench/run.py                          # ledger run: all workloads
   $ python bench/run.py --workload serve_fleet --seed 7 --seconds 15 --trace 0

Each workload runs in fresh child interpreters (``bench/child.py``), one
after another, with a single closed-loop client on the ``serial``
backend.  Without ``--trace`` a workload gets an untraced run (the
end-to-end metrics) and a traced run (the per-layer metrics); ``--trace
0`` / ``--trace 1`` selects one.  Without ``--seconds`` each workload
does its ledger op count; with it, ``round(seconds / nominal op time)``
ops, still a fixed count, so two commits do the same work.

Every metric is printed as ``workload metric value unit``; the full
report goes to ``--out`` (default ``bench/out/report.json``); the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics ``BENCHMARK.json`` lists.  The exit
code is 1 when any op fails its correctness gate, 2 when the tree has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

from tracer import LAYERS  # noqa: E402
from workloads import REFERENCE_EXEMPT, WORKLOADS  # noqa: E402

#: Launches per set-up measurement; ``setup_s`` is their median.
SETUP_LAUNCHES = 5

#: The seed whose digests ``bench/expected.json`` records.
DEFAULT_SEED = 4

#: Code-path knobs pinned for every child (inherited ``REPRO_*`` are
#: cleared first, so obs is off and the trace cache unset).
PINNED_ENV = {
    "REPRO_CODEC_ENGINE": "batched",
    "REPRO_CODEC_IDCT": "float",
    "REPRO_ENGINE": "fast",
    "REPRO_JOBS": "1",
}

#: End-to-end metrics kept out of ``BENCHMARK.json`` because they are
#: not defined on every workload, or read 0 on a good run; ``compare.py``
#: still holds them to these bounds: name -> (unit, better, bound).
REPORT_ONLY_E2E = {
    "op_s_tail": ("s", "lower", 0.25),
    "sessions_per_s": ("sessions/s", "higher", 0.25),
    "encode_fps": ("frames/s", "higher", 0.25),
    "decode_fps": ("frames/s", "higher", 0.25),
    "corrupt_decodes_per_s": ("decodes/s", "higher", 0.25),
    "failed_ratio": ("fraction", "lower", 0.0),
}

#: Per-layer metrics beyond ``.self_s`` and ``.share``.
LAYER_EXTRAS = {
    "service.session": ("calls",),
    "transport": ("calls", "packets_sent", "fec_recovered_ratio"),
    "codec.encoder": ("frames",),
    "codec.renditions": ("setup_s",),
    "codec.decoder": ("calls", "frames", "distinct_input_ratio",
                      "concealed_ratio", "vlc_parse_share",
                      "reconstruct_share"),
    "memsim": ("batches", "batches_per_s"),
    "video": ("setup_s",),
}

LAYER_UNITS = {
    "self_s": "s", "setup_s": "s", "share": "fraction", "calls": "count",
    "frames": "count", "packets_sent": "count", "batches": "count",
    "batches_per_s": "batches/s", "fec_recovered_ratio": "fraction",
    "distinct_input_ratio": "fraction", "concealed_ratio": "fraction",
    "vlc_parse_share": "fraction", "reconstruct_share": "fraction",
}

TOTAL_UNITS = {
    "unattributed_s": "s",
    "unattributed_share": "fraction",
    "trace_overhead": "fraction",
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero, timed out or wrote no result."""


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    names = {}
    for layer in LAYERS:
        # memsim reports its timing as batches_per_s, not self_s.
        fields = ("share",) if layer == "memsim" else ("self_s", "share")
        for field in fields + LAYER_EXTRAS.get(layer, ()):
            names[f"{layer}.{field}"] = LAYER_UNITS[field]
    names.update(TOTAL_UNITS)
    return names


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    build = OUT / "build"
    env.update({
        "REPRO_KERNEL_CACHE": str(build / "kernels"),
        "REPRO_RUNS": str(tmp / "runs"),
        "PYTHONPYCACHEPREFIX": str(build / "pycache"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(mode: str, args: list[str], env: dict, timeout_s: float,
          result: Path | None = None) -> tuple[float | None, dict | str]:
    """Run one child; returns (seconds to READY, parsed result).

    Without ``result`` the parsed result is the child's stdout.
    """
    command = [sys.executable, str(BENCH / "child.py"), mode, *args]
    if result is not None:
        command += ["--result", str(result)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise ChildFailed(f"child {mode} exited {code}")
    if result is None:
        return ready, "".join(lines)
    try:
        return ready, json.loads(result.read_text())
    except (OSError, ValueError) as error:
        raise ChildFailed(f"child {mode} wrote no result: {error}") from error


class WorkloadRun:
    """Runs one workload's children and turns their output into metrics."""

    def __init__(self, workload, seed: int, n_ops: int, env: dict,
                 scratch: Path, expected: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.n_ops = n_ops
        self.env = env
        self.scratch = scratch
        self.expected = expected.get(workload.name, {})
        self.attempted = 0
        self.failed: set[tuple[str, int]] = set()
        self.failures: list[dict] = []
        self.metrics: dict[str, float] = {}
        self.per_layer: dict[str, float | str] = {}
        self.digests: dict[str, dict] = {}
        self.extra: dict = {}
        # Per child: three times the nominal op work plus set-up slack.
        self.timeout_s = 30.0 + 3.0 * n_ops * workload.nominal_op_s

    def _child(self, mode: str, n_ops: int | None = None, env=None,
               trace_file: Path | None = None):
        args = ["--workload", self.workload.name, "--seed", str(self.seed),
                "--ops", str(self.n_ops if n_ops is None else n_ops),
                "--scratch", str(self.scratch / mode)]
        if trace_file is not None:
            args += ["--trace-file", str(trace_file)]
        self.scratch.mkdir(parents=True, exist_ok=True)
        result = None if mode == "setup" else self.scratch / f"{mode}.json"
        return spawn(mode, args, env or self.env, self.timeout_s, result)

    def fail(self, run: str, index: int, reason: str) -> None:
        self.failed.add((run, index))
        self.failures.append({"run": run, "op": index, "reason": reason})

    def _gate(self, run: str, op: dict) -> None:
        """Per-op checks: the op itself, then the recorded digests."""
        self.attempted += 1
        if "error" in op:
            self.fail(run, op["index"], op["error"].strip().splitlines()[-1])
            return
        want = self.expected.get(op["key"])
        if want is not None and want != op["digests"]:
            self.fail(run, op["index"], f"digests differ from expected.json "
                      f"for input {op['key']}")

    def run_untraced(self) -> list[dict]:
        setup_times = []
        for launch in range(SETUP_LAUNCHES):
            mode = "measure" if launch == SETUP_LAUNCHES - 1 else "setup"
            ready, result = self._child(mode)
            setup_times.append(ready)
        ops = result["ops"]
        for op in ops:
            self._gate("measure", op)
            if "error" not in op:
                self.digests[op["key"]] = op["digests"]
        self.extra["setup_launches_s"] = setup_times
        self.extra["op_walls_s"] = [op["wall"] for op in ops]
        self._e2e(ops, setup_times, result["peak_rss_mb"])
        return ops

    def _e2e(self, ops: list[dict], setup_times: list, peak_rss_mb: float):
        good = [op for op in ops if "error" not in op]
        walls = [op["wall"] for op in good] or [0.0]
        m = self.metrics
        m["setup_s"] = statistics.median(setup_times)
        m["op_s_p50"] = statistics.median(walls)
        m["peak_rss_mb"] = peak_rss_mb
        n = len(walls)
        if n >= 30:  # a tail with at least ten samples beyond it
            self.extra["op_s_tail_percentile"] = 100.0 * (1 - 10 / n)
            m["op_s_tail"] = percentile(walls, 100.0 * (1 - 10 / n))

        def rate(work: str, phase: str | None = None) -> float:
            """Median over ops of work per second: one slow op (host
            noise) moves it no more than it moves op_s_p50."""
            rates = [op["work"][work] / spent for op in good
                     if (spent := op["phases"][phase] if phase else op["wall"])]
            return statistics.median(rates) if rates else 0.0

        if good and "sessions" in good[0]["work"]:
            m["sessions_per_s"] = rate("sessions")
        if good and "frames" in good[0]["work"]:
            m["encode_fps"] = rate("frames", "encode")
            m["decode_fps"] = rate("frames", "decode")
            m["corrupt_decodes_per_s"] = rate("corrupt_decodes", "corrupt")

    def run_traced(self, trace_file: Path) -> list[dict]:
        _, result = self._child("traced", trace_file=trace_file)
        pairs = result["pairs"]
        for pair in pairs:
            untraced, traced = pair["untraced"], pair["traced"]
            self._gate("traced-twin", untraced)
            self._gate("traced", traced)
            if "error" in untraced or "error" in traced:
                continue
            if traced["digests"] != untraced["digests"]:
                self.fail("traced", traced["index"],
                          "traced digests differ from the untraced twin")
            known = self.digests.get(untraced["key"])
            if known is not None and known != untraced["digests"]:
                self.fail("traced-twin", untraced["index"],
                          "digests differ from the untraced run")
            self.digests.setdefault(untraced["key"], untraced["digests"])
        self._layers(pairs, result)
        return [pair["untraced"] for pair in pairs]

    def _layers(self, pairs: list[dict], result: dict) -> None:
        traced = [p["traced"] for p in pairs if "error" not in p["traced"]]
        twins = [p["untraced"] for p in pairs if "error" not in p["untraced"]]
        n = max(1, len(traced))
        absent = set(result["absent_layers"])
        region_ns = sum(op["layers"]["region_ns"] for op in traced) or 1

        def total(layer: str, field: str) -> float:
            return sum(op["layers"]["layers"].get(layer, {}).get(field, 0)
                       for op in traced)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        spans = [op["obs"] for op in traced if op.get("obs")]
        setup_layers = result["setup_layers"]["layers"]
        out = self.per_layer
        for name in layer_metric_names():
            layer, _, field = name.rpartition(".")
            if layer in absent:
                out[name] = "absent"
                continue
            if field == "self_s":
                out[name] = total(layer, "self_ns") / n / 1e9
            elif field == "share":
                out[name] = total(layer, "self_ns") / region_ns
            elif field in ("calls", "frames", "packets_sent", "batches"):
                out[name] = total(layer, field) / n
            elif field == "setup_s":
                out[name] = setup_layers.get(layer, {}).get("self_ns", 0) / 1e9
            elif field == "fec_recovered_ratio":
                out[name] = ratio(total(layer, "recovered"),
                                  total(layer, "dropped"))
            elif field == "concealed_ratio":
                out[name] = ratio(total(layer, "concealed"),
                                  total(layer, "calls"))
            elif field == "distinct_input_ratio":
                per_op = [ratio(s["distinct_inputs"], s["calls"])
                          for op in traced
                          if (s := op["layers"]["layers"].get(layer))
                          and s["calls"]]
                out[name] = statistics.fmean(per_op) if per_op else 0.0
            elif field in ("vlc_parse_share", "reconstruct_share"):
                key = field.replace("_share", "_ns")
                decoded = [s for s in spans if s["decode_ns"]]
                if total(layer, "calls") == 0:
                    out[name] = 0.0
                elif not decoded or any(s[key] is None for s in decoded):
                    out[name] = "absent"  # the program's spans are gone
                else:
                    out[name] = (sum(s[key] for s in decoded)
                                 / sum(s["decode_ns"] for s in decoded))
            elif field == "batches_per_s":
                out[name] = ratio(total(layer, "batches"),
                                  total(layer, "self_ns") / 1e9)
        unattributed = sum(op["layers"]["unattributed_ns"] for op in traced)
        out["unattributed_s"] = unattributed / n / 1e9
        out["unattributed_share"] = unattributed / region_ns
        traced_p50 = statistics.median([op["wall"] for op in traced] or [0.0])
        twin_p50 = statistics.median([op["wall"] for op in twins] or [0.0])
        out["trace_overhead"] = ratio(traced_p50, twin_p50) - 1.0 if twin_p50 else 0.0
        self.extra["traced_ops"] = len(traced)
        self.extra["absent_targets"] = result["absent_targets"]

    def run_oracle(self, first: dict) -> None:
        """Op 0 again, cold, under the per-MB reference codec engine."""
        env = dict(self.env, REPRO_CODEC_ENGINE="reference")
        _, result = self._child("oracle", n_ops=1, env=env)
        oracle = result["ops"][0]

        def compared(digests: dict) -> dict:
            return {k: v for k, v in digests.items() if k not in REFERENCE_EXEMPT}

        if "error" in oracle:
            self.fail("oracle", 0, oracle["error"].strip().splitlines()[-1])
        elif "error" not in first and (compared(oracle["digests"])
                                       != compared(first["digests"])):
            self.fail("oracle", 0,
                      "op 0 differs under REPRO_CODEC_ENGINE=reference")

    def run(self, trace: int | None, trace_file: Path) -> None:
        try:
            first = None
            if trace in (None, 0):
                first = self.run_untraced()[0]
            if trace in (None, 1):
                twins = self.run_traced(trace_file)
                first = first or twins[0]
            if self.workload.seeded:
                self.run_oracle(first)
        except ChildFailed as error:
            self.attempted = max(self.attempted, self.n_ops)
            self.fail("child", -1, str(error))
        self.metrics["failed_ratio"] = (
            len(self.failed) / self.attempted if self.attempted else 1.0
        )

    @property
    def correct(self) -> bool:
        return not self.failures


def metric_catalog(spec: dict) -> tuple[dict, dict]:
    """(end-to-end name -> entry, per-layer name -> unit)."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    for name, (unit, better, bound) in REPORT_ONLY_E2E.items():
        e2e.setdefault(name, {"name": name, "unit": unit, "better": better,
                              "bound": bound})
    return e2e, layer_metric_names()


def workload_report(run: WorkloadRun, e2e: dict, layer_units: dict) -> dict:
    return {
        "why": run.workload.why,
        "n_ops": run.n_ops,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "failures": run.failures,
        "metrics": {
            name: {"value": value, "unit": e2e[name]["unit"],
                   "better": e2e[name]["better"], "bound": e2e[name]["bound"]}
            for name, value in run.metrics.items()
        },
        "per_layer": {
            name: {"value": value, "unit": layer_units[name]}
            for name, value in run.per_layer.items()
        },
        "digests": run.digests,
        **run.extra,
    }


def print_metrics(name: str, entry: dict) -> None:
    for group in ("metrics", "per_layer"):
        for metric, item in entry[group].items():
            value = item["value"]
            shown = value if isinstance(value, str) else f"{value:.6g}"
            note = ""
            if metric == "op_s_tail":
                note = (f"  (p{entry['op_s_tail_percentile']:.1f}, "
                        f"n={len(entry['op_walls_s'])})")
            print(f"{name} {metric} {shown} {item['unit']}{note}")
    print(f"{name} correct {entry['correct']} attempted {entry['attempted']} "
          f"failed {entry['failed']}")
    for failure in entry["failures"]:
        print(f"{name} FAILED {failure['run']} op {failure['op']}: "
              f"{failure['reason']}")


def result_line(report: dict, spec: dict, trace: int | None) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` lists."""
    wanted = []
    if trace in (None, 0):
        wanted += [(m, "metrics") for m in spec["end_to_end"]]
    if trace in (None, 1):
        wanted += [(m, "per_layer") for m in spec["per_layer"]]
    workloads = report["workloads"]
    metrics = {}
    for workload, entry in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for metric, group in wanted:
            value = entry[group].get(metric["name"], {}).get("value", 0.0)
            metrics[prefix + metric["name"]] = {
                # An absent layer has no number; it reads 0 here and
                # "absent" in the printed lines and the report.
                "value": 0.0 if isinstance(value, str) else value,
                "unit": metric["unit"],
            }
    return {
        "correct": all(e["correct"] for e in workloads.values()),
        "attempted": max(1, sum(e["attempted"] for e in workloads.values())),
        "failed": sum(e["failed"] for e in workloads.values()),
        "metrics": metrics,
    }


def write_expected(report: dict, path: Path) -> None:
    path.write_text(json.dumps(
        {"seed": report["seed"],
         "workloads": {name: entry["digests"]
                       for name, entry in report["workloads"].items()}},
        indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=(
        "Run the benchmark workloads; print every metric and a JSON result "
        "line."))
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        help="workloads to run (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size each run to about this long at the "
                             "baseline commit (default: ledger op counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced run only; 1: traced run only "
                             "(default: both)")
    parser.add_argument("--out", type=Path, default=OUT / "report.json")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's digests as bench/expected.json")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = load_spec()
    e2e, layer_units = metric_catalog(spec)
    expected_path = BENCH / "expected.json"
    expected = (json.loads(expected_path.read_text())["workloads"]
                if expected_path.is_file() and not args.write_expected else {})
    tmp = OUT / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(tmp)
    try:
        _, build = spawn("build", [], env, timeout_s=600.0)
        report = {
            "schema": "repro-bench-report",
            "version": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "metadata": json.loads(build.strip().splitlines()[-1]),
            "workloads": {},
        }
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            run = WorkloadRun(workload, args.seed,
                              workload.ops_for(args.seconds), env,
                              tmp / name, expected)
            run.run(args.trace, OUT / f"{name}.trace.json")
            entry = workload_report(run, e2e, layer_units)
            report["workloads"][name] = entry
            print_metrics(name, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.write_expected:
        write_expected(report, expected_path)
    line = result_line(report, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
