#!/usr/bin/env python3
"""Builds the recur benchmark from source and runs one workload.

    python3 perfbench/run.py --workload closure|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a recur checkout. The first call configures and
builds perfbench/ (and the library from src/) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr; stdout
carries the driver's report, whose last line is the JSON result. The exit
code is the driver's: 0 when every correctness check passed, 1 when one
failed; 2 when the sources or the build are missing or broken.

--selftest runs the percentile unit checks, then every workload at a tiny
size with and without tracing, and checks that each run prints exactly the
metrics BENCHMARK.json declares, with their units.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("closure", "serve")
# A run must end well inside three minutes; the driver stops itself sooner.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: recur sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], cwd=ROOT,
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (paths and bytes), so
    a result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def driver_command(workload, seed, seconds, trace, tiny=False):
    work = os.path.join(ROOT, ".bench_build", "perfbench-work-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    return cmd, work


def run_driver(cmd, work, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: the driver overran %d s and was stopped"
            % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest():
    """Unit checks, then each workload at a tiny size, traced and not."""
    failures = []
    unit = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          cwd=ROOT, capture_output=True, text=True)
    print(unit.stdout, end="")
    if unit.returncode != 0:
        failures.append("percentile/self-time unit checks")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd, work = driver_command(workload, 1, 1, trace, tiny=True)
            done = run_driver(cmd, work, capture=True)
            label = "%s trace=%d" % (workload, trace)
            if done is None or done.returncode != 0:
                failures.append("%s: exit %s" % (
                    label, None if done is None else done.returncode))
                if done is not None:
                    print(done.stdout[-2000:], end="")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if result.get("correct") is not True:
                problems.append("not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(k for k in got if k in declared[trace]
                               and got[k] != declared[trace][k])
                problems.append("metrics missing %s extra %s wrong unit %s"
                                % (missing, extra, wrong))
            stamp = [l for l in lines if l.startswith("stamp ")]
            if not stamp:
                problems.append("no stamp line")
            else:
                fields = json.loads(stamp[0][len("stamp "):])
                for key in ("nproc", "compiler", "build_type", "git_sha",
                            "seed", "sizes"):
                    if key not in fields:
                        problems.append("stamp lacks %s" % key)
            if not any(l.startswith("e2e error_rate ") for l in lines):
                problems.append("no error_rate line")
            print("selftest %s: %s" % (label, "; ".join(problems) or "ok"))
            failures += ["%s: %s" % (label, p) for p in problems]
    print("selftest: %s" % ("ok" if not failures else
                             "FAILED (%d)" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    if args.selftest:
        return selftest()
    cmd, work = driver_command(args.workload, args.seed, args.seconds,
                               args.trace)
    done = run_driver(cmd, work, capture=False)
    return 2 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
