#!/usr/bin/env python3
"""Compares two sets of cdbench runs, metric by metric.

Usage, from the repository root:

    python3 cdbench/compare.py --base base/*.out --head head/*.out

Each file holds the standard output of one `cdbench/run.py` invocation
(its `workload ...` line and its final JSON line are read). Runs are
grouped by workload; each side needs at least two runs of a workload,
and ten or more are needed before a gain can be claimed.

For every (workload, metric) it prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

  better      over ten or more pairs, head wins at least 9 in 10 and the
              medians differ by more than the base's own quartile spread;
              or, where that spread is wider than the bound, every head
              run beats every base run
  worse       head's median is worse than base's by more than the bound
  same        within the bound, with base's spread inside the bound
  unresolved  base's quartile spread is wider than the bound, so "same"
              cannot be told apart from a regression
  -           a per-layer metric: no bound, medians only

Exits 1 when any metric is worse, 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_runs(paths):
    """{workload: {metric: [values]}} and {metric: unit} from run outputs."""
    runs, units = {}, {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
        workload = next((l.split()[1] for l in lines if l.startswith("workload ")), None)
        if workload is None or not lines[-1].startswith("{"):
            fail(f"{path} is not the output of a cdbench run")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"compare: warning: {path} reports failed checks", file=sys.stderr)
        for name, m in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return runs, units


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, bound, lower_is_better):
    """One of better / worse / same / unresolved (see module doc)."""
    sign = 1.0 if lower_is_better else -1.0
    q1, med, q3 = summary(base)
    _, head_med, _ = summary(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med - head_med) > q3 - q1:
        return "better"
    if med != 0 and (q3 - q1) / abs(med) > bound:
        if all(sign * (b - h) > 0 for b in base for h in head):
            return "better"
        return "unresolved"
    if med != 0 and sign * (head_med - med) / abs(med) > bound:
        return "worse"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="run outputs of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="run outputs of the change")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    opts = parser.parse_args()

    with open(opts.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    base, units = load_runs(opts.base)
    head, head_units = load_runs(opts.head)
    units.update(head_units)

    worse = 0
    print(f"{'workload':14} {'metric':32} {'unit':9} {'base q1/median/q3':>38} "
          f"{'head q1/median/q3':>38} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(head)):
        for name in sorted(set(base[workload]) & set(head[workload])):
            b, h = base[workload][name], head[workload][name]
            if len(b) < 2 or len(h) < 2:
                fail(f"{workload}/{name} needs at least two runs per side")
            bq, hq = summary(b), summary(h)
            change = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            if name in bounds:
                v = verdict(b, h, *bounds[name])
                worse += v == "worse"
            else:
                v = "-"
            print(f"{workload:14} {name:32} {units[name]:9} "
                  f"{bq[0]:12.4g} {bq[1]:12.4g} {bq[2]:12.4g} "
                  f"{hq[0]:12.4g} {hq[1]:12.4g} {hq[2]:12.4g} {change:+8.2%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
