#!/usr/bin/env python3
"""Summarizes benchmark runs.

Each FILE holds the standard output of one or more runs, appended one
after another (header line, metric lines, summary line). Runs are grouped
by workload; every FILE is one set.

  python3 bench/summarize.py SET1 [SET2 ...]
      per workload and summary metric: median, quartiles and the spread
      (Q3 - Q1) / median of each set, and each later set's median drift
      from the first set's.

  python3 bench/summarize.py --pairs PARENT CHANGE
      runs of the two files are paired in order (alternate which side
      runs first); per metric: the change's wins, ties and losses, by
      the direction BENCHMARK.json gives.

  python3 bench/summarize.py --table FILE
      one Markdown table of the summary metrics, a column per workload
      (its median over the file's runs); made for traced runs.
"""
import json
import os
import statistics
import sys


def load(path):
    """Returns {workload: [summary metrics dict, ...]}."""
    runs, workload = {}, None
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if "header" in d:
            workload = d["header"]["workload"]
        elif "metrics" in d and "correct" in d:
            if not d["correct"] or d["failed"]:
                print("warning: %s: a %s run failed its checks" % (path, workload), file=sys.stderr)
            runs.setdefault(workload, []).append({k: v["value"] for k, v in d["metrics"].items()})
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def directions():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    b = json.load(open(path))
    return {m["name"]: m["better"] for m in b["end_to_end"] + b["per_layer"]}


def summarize(paths):
    sets = [load(p) for p in paths]
    for workload in sorted(sets[0]):
        print("== %s" % workload)
        for metric in sorted(sets[0][workload][0]):
            cells, first = [], None
            for s in sets:
                vals = [r[metric] for r in s.get(workload, []) if metric in r]
                if not vals:
                    continue
                med, q1, q3, spread = stats(vals)
                cell = "n=%d med=%.5g q1=%.5g q3=%.5g spread=%.3f" % (len(vals), med, q1, q3, spread)
                if first is None:
                    first = med
                elif first:
                    cell += " drift=%+.3f" % ((med - first) / first)
                cells.append(cell)
            print("  %-22s %s" % (metric, " | ".join(cells)))


def pairs(parent, change):
    better = directions()
    a, b = load(parent), load(change)
    for workload in sorted(a):
        print("== %s" % workload)
        for metric in sorted(a[workload][0]):
            sign = 1 if better.get(metric, "lower") == "lower" else -1
            wins = ties = losses = 0
            for pa, ch in zip(a[workload], b.get(workload, [])):
                d = sign * (pa[metric] - ch[metric])
                wins, ties, losses = wins + (d > 0), ties + (d == 0), losses + (d < 0)
            pm = statistics.median(r[metric] for r in a[workload])
            cm = statistics.median(r[metric] for r in b[workload])
            print("  %-22s parent %.5g change %.5g  wins %d ties %d losses %d" % (metric, pm, cm, wins, ties, losses))


def table(path):
    runs = load(path)
    workloads = list(runs)
    print("| metric | %s |" % " | ".join(workloads))
    print("|---|" + "---:|" * len(workloads))
    for metric in sorted({m for rs in runs.values() for r in rs for m in r}):
        cells = []
        for w in workloads:
            vals = [r[metric] for r in runs[w] if metric in r]
            cells.append("%.4g" % statistics.median(vals) if vals else "")
        print("| `%s` | %s |" % (metric, " | ".join(cells)))


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--pairs"] and len(args) == 3:
        pairs(args[1], args[2])
    elif args[:1] == ["--table"] and len(args) == 2:
        table(args[1])
    elif args and not args[0].startswith("-"):
        summarize(args)
    else:
        sys.exit(__doc__)
