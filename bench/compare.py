#!/usr/bin/env python3
"""Summarise or compare result files written by ``run.py --out``.

    python3 bench/compare.py spread RESULTS.jsonl
        Per workload and metric: runs, median, quartiles, and the spread
        (Q3 - Q1) / median, flagged when above a third of the metric's bound
        in BENCHMARK.json.

    python3 bench/compare.py diff BASE.jsonl NEW.jsonl
        Per workload and metric: both medians and quartiles and the change.
        An end-to-end metric is a "regression" when NEW's median is worse
        than BASE's by more than its bound, "unresolved" when BASE's own
        spread is wider than the bound (unless every NEW run beats every
        BASE run), else "better" or "same".  Per-layer metrics (trace runs)
        are listed with their change only: they have no bound.

Quartiles are ``statistics.quantiles(values, n=4)``.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values...]}} plus failure counts."""
    table: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            key = (run["workload"], run["trace"])
            metrics = table.setdefault(key, {})
            for name, entry in run["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
            metrics.setdefault("#failed", []).append(run["failed"])
    return table


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(path: str) -> int:
    worst = 0
    for (workload, trace), metrics in sorted(load(path).items()):
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<44} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, values in metrics.items():
            if name.startswith("#"):
                continue
            q1, q2, q3 = quartiles(values)
            rel = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = BOUNDS.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  > bound/3"
                worst = 1
            print(f"  {name:<44} {len(values):>4} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {rel:>8.3f} {'' if bound is None else bound:>6}{flag}")
        print(f"  failed ops per run: {metrics['#failed']}")
    return worst


def worse_by(name: str, base: float, new: float) -> float:
    """Relative worsening of new against base (negative when better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if BETTER.get(name, "lower") == "lower" else -change


def diff(base_path: str, new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        for name, b_values in base[key].items():
            n_values = new[key].get(name)
            if name.startswith("#") or not n_values:
                continue
            b1, b2, b3 = quartiles(b_values)
            n1, n2, n3 = quartiles(n_values)
            worse = worse_by(name, b2, n2)
            verdict = ""
            bound = BOUNDS.get(name, {}).get("bound")
            if bound is not None and not trace:
                lower = BETTER[name] == "lower"
                all_better = (max(n_values) < min(b_values)) if lower else \
                    (min(n_values) > max(b_values))
                if worse > bound:
                    verdict = "regression"
                    status = 1
                elif b2 and (b3 - b1) / abs(b2) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "better" if worse < 0 else "same"
            change = (n2 - b2) / abs(b2) if b2 else 0.0
            print(f"  {name:<44} {b2:>12.6g} [{b1:.4g}, {b3:.4g}] -> {n2:>12.6g}"
                  f" [{n1:.4g}, {n3:.4g}]  {change:+.1%} {verdict}")
        print(f"  failed ops per run: {base[key]['#failed']} -> {new[key]['#failed']}")
    return status


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
