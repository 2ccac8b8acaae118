#!/usr/bin/env python3
"""Self-test of the serving benchmark (small sizes, about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that
  * every workload runs once per trace mode and emits exactly the metrics
    BENCHMARK.json names, with their units (end-to-end values non-zero);
  * the same seed gives a byte-identical request stream, another seed a
    different one;
  * a deliberately wrong expected answer fails the run: non-zero exit and
    no result line;
  * without the library sources the benchmark exits non-zero, prints no
    result, and does so quickly.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
# The check each workload's --corrupt-expected run must fail on.
CORRUPTION_CAUGHT_BY = {
    "hot_small": "the exhaustive reference disagrees",
    "churn_large": "disagrees with an ad-hoc solve of the model",
    "durable_write": "differ from the model",
}


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(what + " printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("%s: %s" % (what, lines[-1]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for workload in names:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            result = result_of(run(["--workload", workload, "--seed", "7",
                                    "--seconds", "2", "--trace", str(trace),
                                    "--small"]), what)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in expected[trace]}
            if sorted(metrics) != sorted(want):
                fail("%s: metrics %s, expected %s" %
                     (what, sorted(metrics), sorted(want)))
            for name, unit in want.items():
                if metrics[name]["unit"] != unit:
                    fail("%s: %s has unit %s, expected %s" %
                         (what, name, metrics[name]["unit"], unit))
                if trace == 0 and not metrics[name]["value"] > 0:
                    fail("%s: %s is %r" % (what, name, metrics[name]["value"]))
            print("selftest: ok   %s (%d metrics)" % (what, len(metrics)))

        digests = []
        for seed in ("11", "11", "12"):
            proc = run(["--workload", workload, "--seed", seed, "--seconds",
                        "1", "--trace", "0", "--stream-digest", "3000"])
            if proc.returncode != 0:
                fail("stream digest of %s: %s" % (workload, proc.stderr))
            digests.append(json.loads(proc.stdout.strip().splitlines()[-1])
                           ["digest"])
        if digests[0] != digests[1]:
            fail("%s: seed 11 gave two different request streams" % workload)
        if digests[0] == digests[2]:
            fail("%s: seeds 11 and 12 gave the same request stream" % workload)
        print("selftest: ok   %s stream is a function of the seed" % workload)

        proc = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", "0", "--small", "--corrupt-expected"])
        if proc.returncode == 0 or proc.stdout.strip():
            fail("%s: a wrong expected answer did not fail the run" % workload)
        if CORRUPTION_CAUGHT_BY[workload] not in proc.stderr:
            fail("%s: the run failed, but not on the planted answer:\n%s" %
                 (workload, proc.stderr[-2000:]))
        print("selftest: ok   %s fails on a wrong expected answer" % workload)

    # A directory holding only BENCHMARK.json and the benchmark itself.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         names[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without the sources the benchmark did not fail")
    print("selftest: ok   fails without the sources (%.1f s)" %
          (time.time() - start))
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
