"""Compare benchmark reports of a parent commit and a change.

.. code-block:: console

   $ python bench/compare.py --parent p1.json p2.json ... \\
         --change c1.json c2.json ... [--claim serve_fleet:op_s_p50]

Each report is one ``bench/run.py --out`` file; give each side's reports
in the order they were run, alternating which side ran first, so the
i-th reports of the two sides form a pair.  One row is printed per
workload and end-to-end metric: each side's median and quartiles, the
change of the medians in the worse direction, and a verdict:

- ``worse`` / ``better``: the medians differ by more than the bound,
  or, when a side is too noisy to compare medians (its run-to-run
  spread, quartile distance over median, is wider than the bound),
  every change run reads worse / better than every parent run;
- ``unresolved``: a side is too noisy and the runs overlap;
- ``same``: otherwise.

A ``--claim workload:metric`` is met when the change wins at least nine
tenths of all pairs (ties count for neither) and the medians differ by
more than the parent's own spread.  The exit code is 1 when any metric
is ``worse``, is ``unresolved`` with its median worse by more than the
bound, or any claim is not met.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change of ``change`` against ``parent``; > 0 is worse."""
    diff = (change - parent) if better == "lower" else (parent - change)
    if parent == 0:  # e.g. failed_ratio: any rise is an unbounded change
        return math.copysign(math.inf, diff) if diff else 0.0
    return diff / abs(parent)


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    delta = worse_by(statistics.median(parent), statistics.median(change),
                     better)
    if max(spread(parent), spread(change)) > bound:
        if all(beats(c, p, better) for c in change for p in parent):
            return "better"
        if all(beats(p, c, better) for c in change for p in parent):
            return "worse"
        return "unresolved"
    if delta > bound:
        return "worse"
    if -delta > bound:
        return "better"
    return "same"


def claim_met(parent: list[float], change: list[float], better: str) -> tuple[bool, str]:
    """The pair-win rule for a claimed gain."""
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p, better) for p, c in pairs)
    gain = -worse_by(statistics.median(parent), statistics.median(change),
                     better)
    met = bool(pairs) and wins >= 0.9 * len(pairs) and gain > spread(parent)
    return met, (f"{wins}/{len(pairs)} pairs won, median gain {gain:+.2%} "
                 f"vs parent spread {spread(parent):.2%}")


def collect(reports: list[dict]) -> dict:
    """(workload, metric) -> (entry, [values across reports])."""
    out: dict = {}
    for report in reports:
        for workload, entry in report["workloads"].items():
            for metric, item in entry["metrics"].items():
                slot = out.setdefault((workload, metric), (item, []))
                slot[1].append(item["value"])
    return out


def compare(parent_reports: list[dict], change_reports: list[dict],
            claims: list[str] = ()) -> tuple[list[dict], bool]:
    """Rows of the comparison, and whether it passes."""
    parent = collect(parent_reports)
    change = collect(change_reports)
    rows = []
    ok = True
    for key in sorted(set(parent) | set(change)):
        workload, metric = key
        if key not in parent or key not in change:
            rows.append({"workload": workload, "metric": metric,
                         "verdict": "missing"})
            continue
        item, p_values = parent[key]
        _, c_values = change[key]
        row = {
            "workload": workload, "metric": metric, "unit": item["unit"],
            "bound": item["bound"],
            "parent": quartiles(p_values), "change": quartiles(c_values),
            "worse_by": worse_by(statistics.median(p_values),
                                 statistics.median(c_values), item["better"]),
            "verdict": verdict(p_values, c_values, item["better"],
                               item["bound"]),
        }
        if f"{workload}:{metric}" in claims:
            row["claim_met"], row["claim"] = claim_met(p_values, c_values,
                                                       item["better"])
            ok &= row["claim_met"]
        row["fails"] = row["verdict"] == "worse" or (
            row["verdict"] == "unresolved" and row["worse_by"] > row["bound"])
        ok &= not row["fails"]
        rows.append(row)
    unknown = set(claims) - {f"{r['workload']}:{r['metric']}" for r in rows}
    if unknown:
        raise ValueError(f"no such workload:metric to claim: {sorted(unknown)}")
    return rows, ok


def format_row(row: dict) -> str:
    head = f"{row['workload']:<12} {row['metric']:<22}"
    if row["verdict"] == "missing":
        return f"{head} missing on one side"
    p1, pm, p3 = row["parent"]
    c1, cm, c3 = row["change"]
    line = (f"{head} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {row['unit']}  "
            f"worse by {row['worse_by']:+.2%} (bound {row['bound']:.0%})  "
            f"{row['verdict']}")
    if row["verdict"] == "unresolved" and row["fails"]:
        line += " (median worse beyond the bound: fails)"
    if "claim" in row:
        line += f"  claim {'met' if row['claim_met'] else 'NOT met'}: {row['claim']}"
    return line


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=(
        "Compare bench/run.py reports of a parent and a change."))
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--claim", nargs="*", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    rows, ok = compare(_load(args.parent), _load(args.change), args.claim)
    for row in rows:
        print(format_row(row))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
