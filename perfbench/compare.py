#!/usr/bin/env python3
"""Compare a parent run set with a change run set (stdlib only).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --spread RUNS.jsonl

A run set is the JSONL file run.py appends to (one record per run). Runs
are paired in file order per (workload, trace mode), so alternate the
parent and change runs when making them. For every metric and workload
the verdict is:

  improved    at least 10 pairs, the change wins >= 9/10 of them (ties
              count for neither side), the medians differ by more than
              the parent's interquartile range, and the change fails no
              larger share of its requests than the parent on that
              workload (a gain bought with failures does not count);
  regressed   end-to-end: the change's median is worse than the parent's
              by more than the metric's bound in BENCHMARK.json and by
              more than the parent's interquartile range; ok_ratio: any
              run of the change below the parent's lowest; per-layer (no
              bound): the mirror image of `improved`;
  unresolved  worse by more than the bound but within the parent's
              interquartile range; the parent's own spread (IQR / median)
              is wider than the bound and the change does not beat the
              parent on every run; (per-layer) the medians differ by more
              than the IQR without a 9/10 majority; or an `improved`
              withdrawn because the change fails more requests;
  unchanged   otherwise.

--spread prints each metric's median and IQR/median for one run set, the
figure the benchmark's bounds are checked against. Exit status: 1 if any
metric regressed, else 0.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
# Runs whose CPU steal exceeds this share are flagged: on a shared host
# they read slow for reasons outside the program.
STEAL_NOTE_PCT = 5.0


def load_bench(path):
    with open(path) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = {"better": m["better"], "bound": m["bound"],
                            "unit": m["unit"], "end_to_end": True}
    for m in bench["per_layer"]:
        specs[m["name"]] = {"better": m["better"], "bound": None,
                            "unit": m["unit"], "end_to_end": False}
    return specs


def load_runs(path):
    """{(workload, trace): {metric: [values in file order]}}, the
    requests {(workload, trace): [attempted, failed]} summed over the runs,
    and notes. Self-test runs (--small) are kept apart from full-size ones."""
    runs, requests, notes = {}, {}, []
    digests = set()
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            meta = rec.get("meta", {})
            if not meta.get("release", False):
                notes.append("%s:%d: build is not Release (%r)"
                             % (path, number, meta.get("build_type")))
            digests.add(meta.get("source_digest"))
            steal = meta.get("cpu_steal_pct")
            if steal is not None and steal > STEAL_NOTE_PCT:
                notes.append("%s:%d: %.1f%% of CPU time was stolen by the "
                             "hypervisor during this run" % (path, number, steal))
            result = rec["result"]
            if not result.get("correct", False):
                notes.append("%s:%d: run failed its correctness checks"
                             % (path, number))
                continue
            workload = rec["workload"] + (" (small)" if meta.get("small") else "")
            key = (workload, rec["trace"])
            counts = requests.setdefault(key, [0, 0])
            counts[0] += result["attempted"]
            counts[1] += result["failed"]
            for name, m in result["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(
                    m["value"])
    if len(digests) > 1:
        notes.append("%s: runs of %d different source trees" %
                     (path, len(digests)))
    return runs, requests, notes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"
    n = min(len(parent), len(change))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = (p_med - c_med) if lower else (c_med - p_med)

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c))
    all_better = all(better(c, p) for c in change for p in parent)
    if n >= 10 and wins >= 0.9 * n and gain > iqr:
        v = "improved"
    elif spec["end_to_end"]:
        bound = spec["bound"]
        spread = iqr / abs(p_med) if p_med else 0.0
        if -gain > bound * abs(p_med):
            v = "regressed" if -gain > iqr else "unresolved"
        elif spread > bound and not all_better:
            v = "unresolved"
        else:
            v = "unchanged"
    elif n >= 10 and losses >= 0.9 * n and -gain > iqr:
        v = "regressed"
    elif abs(gain) > iqr:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"n": n, "parent": p_med, "change": c_med, "iqr": iqr,
            "wins": wins, "losses": losses, "verdict": v}


def fmt(x):
    return "%.6g" % x


def failed_share(counts):
    return counts[1] / counts[0] if counts and counts[0] else 0.0


def compare(args, specs):
    parent, parent_requests, notes_p = load_runs(args.parent)
    change, change_requests, notes_c = load_runs(args.change)
    for note in notes_p + notes_c:
        print("note: " + note, file=sys.stderr)
    rows = []
    for key in sorted(set(parent) & set(change)):
        more_failures = (failed_share(change_requests.get(key)) >
                         failed_share(parent_requests.get(key)))
        if more_failures:
            print("note: %s: the change fails a larger share of its requests "
                  "than the parent; no metric of it counts as improved"
                  % key[0], file=sys.stderr)
        for name in sorted(set(parent[key]) & set(change[key])):
            if name not in specs:
                continue
            r = verdict(specs[name], parent[key][name], change[key][name])
            if name == "ok_ratio" and (min(change[key][name]) <
                                       min(parent[key][name])):
                r["verdict"] = "regressed"
            if more_failures and r["verdict"] == "improved":
                r["verdict"] = "unresolved"
            rows.append((key[0], name, r))
    print("%-22s %-34s %12s %12s %8s %9s %s" % (
        "workload", "metric", "parent", "change", "delta", "wins/n",
        "verdict"))
    regressed = False
    for workload, name, r in rows:
        delta = ((r["change"] - r["parent"]) / abs(r["parent"]) * 100.0
                 if r["parent"] else 0.0)
        print("%-22s %-34s %12s %12s %+7.1f%% %4d/%-4d %s" % (
            workload, name, fmt(r["parent"]), fmt(r["change"]), delta,
            r["wins"], r["n"], r["verdict"]))
        regressed |= r["verdict"] == "regressed"
    return 1 if regressed else 0


def spread(path, specs):
    runs, _, notes = load_runs(path)
    for note in notes:
        print("note: " + note, file=sys.stderr)
    print("%-22s %-5s %-34s %4s %12s %8s %8s" % (
        "workload", "trace", "metric", "n", "median", "spread", "bound"))
    for (workload, trace), metrics in sorted(runs.items()):
        for name, values in sorted(metrics.items()):
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            s = (q3 - q1) / abs(med) if med else 0.0
            bound = specs.get(name, {}).get("bound")
            print("%-22s %-5d %-34s %4d %12s %7.2f%% %8s" % (
                workload, trace, name, len(values), fmt(med), s * 100.0,
                "-" if bound is None else "%.0f%%" % (bound * 100.0)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare perfbench run sets.")
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--spread", metavar="RUNS")
    args = parser.parse_args()
    specs = load_bench(BENCHMARK)
    if args.spread:
        return spread(args.spread, specs)
    if not (args.parent and args.change):
        parser.error("give PARENT.jsonl and CHANGE.jsonl, or --spread RUNS")
    return compare(args, specs)


if __name__ == "__main__":
    sys.exit(main())
