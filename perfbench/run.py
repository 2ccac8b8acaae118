#!/usr/bin/env python3
"""Build and run the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench (Release, against ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload, appends the result with its run metadata to
<build>/results/runs.jsonl, and prints the result JSON as the last line
of stdout. Exits non-zero, without a result line, when the build or any
correctness check fails.

Extra flags, passed through to the binary: --small (shrunk sizes, for the
self-test), --corrupt-expected (plants a wrong expected answer; the run
must fail), --stream-digest N (print a digest of the first N requests of
every client instead of running).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("hot_small", "churn_large", "durable_write")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the perfbench target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "service.h"))):
        log("the library sources (src/, CMakeLists.txt) are missing")
        sys.exit(2)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                sys.exit(2)
        jobs = str(min(os.cpu_count() or 1, 4))
        result = subprocess.run(
            ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr)
        if result.returncode != 0:
            log("build failed")
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """Aggregate CPU tick counters from /proc/stat (empty if unreadable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(100.0 * delta[7] / total, 2) if total else None


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (/proc/self/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def revision():
    """Git revision when the checkout is a repository, plus a digest of
    the library sources, which identifies the code either way."""
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(start)
            for name in names)
        for p in sorted(paths):
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def compiler(bdir):
    path = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    if not path:
        return "unknown"
    out = subprocess.run([path, "--version"], capture_output=True, text=True)
    first = out.stdout.splitlines()[0] if out.stdout else path
    return first.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    parser.add_argument("--stream-digest", type=int, default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    data_dir = os.path.join(bdir, "data-%d" % os.getpid())
    meta_path = os.path.join(out_dir, "meta-%d.json" % os.getpid())

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--out-dir", out_dir,
           "--meta-out", meta_path]
    if args.small:
        cmd.append("--small")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    if args.stream_digest:
        cmd += ["--stream-digest", str(args.stream_digest)]

    build_type = cmake_cache(bdir, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        log("WARNING: build type is %r, not Release; timings are not "
            "comparable" % build_type)
    fs = filesystem_of(bdir)
    meta = {}
    ticks_before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        if os.path.isfile(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            os.remove(meta_path)

    steal = steal_pct(ticks_before, cpu_times())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            log("binary: " + line)
        log("the benchmark failed (exit %d)" % proc.returncode)
        return proc.returncode or 1
    if args.stream_digest:
        print(lines[-1])
        return 0

    result = json.loads(lines[-1])
    rev, source_digest = revision()
    meta.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": build_type,
        "release": build_type == "Release",
        "compiler": compiler(bdir),
        "git_revision": rev,
        "source_digest": source_digest,
        "data_dir_filesystem": fs,
        "cpu_steal_pct": steal,
    })
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "meta": meta, "result": result}
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    log("meta " + json.dumps(meta, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
