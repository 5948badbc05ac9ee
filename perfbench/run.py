#!/usr/bin/env python3
"""Builds and runs the ParFFT wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. The last line of stdout is the JSON result of the
run. `--trace 1` also writes the spans to
.bench_build/perfbench/spans-<workload>-<seed>.json.

    python3 perfbench/run.py --record-reference

re-records perfbench/reference.txt, the virtual-time digests every run is
checked against (model.mismatches): the seed-independent outputs of each
workload and its reference round, which every run repeats at a fixed seed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "parfft_perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["scale_sweep", "serve_steady", "serve_churn", "fft_exec"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulate.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def clean_env():
    # Library switches read from the environment would change what is
    # measured (tracing, telemetry dumps, paranoid checks).
    return {k: v for k, v in os.environ.items() if not k.startswith("PARFFT_")}


def run_binary(args, timeout):
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           env=clean_env(), timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % timeout, 3)
    return r.returncode, r.stdout


def record_reference():
    lines = ["# Virtual-time digests of the benchmark workloads, recorded on",
             "# seed code with `python3 perfbench/run.py --record-reference`.",
             "# <workload> <key> <digest>"]
    for w in WORKLOADS:
        code, out = run_binary(["--workload", w, "--seed", "1",
                                "--seconds", "0", "--trace", "0",
                                "--digest-only"], 900)
        if code != 0:
            fail("digest run of %s failed" % w, 1)
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] == "REF":
                lines.append(" ".join(parts[1:]))
        print("recorded %s" % w, file=sys.stderr)
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes (the benchmark's own tests)")
    p.add_argument("--reference", default=REFERENCE,
                   help="digests to check against (default: reference.txt)")
    p.add_argument("--record-reference", action="store_true",
                   help="re-record reference.txt")
    a = p.parse_args()

    build()
    if a.record_reference:
        record_reference()
        return 0
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or a.seconds < 0:
        fail("--seed and --seconds must not be negative")

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        args += ["--trace-out",
                 os.path.join(BUILD, "spans-%s-%d.json" % (a.workload, a.seed))]
    if a.tiny:
        args.append("--tiny")  # digests of tiny sizes have no reference
    else:
        args += ["--reference", a.reference]
    code, out = run_binary(args, 175)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
