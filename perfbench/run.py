#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary and runs one workload.

    python3 perfbench/run.py --workload <serve|rmi|gc|kv> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary and the library are built from
source (CMake, Release) under the directory named by CARGO_TARGET_DIR, or
.bench_build by default, on first use; later runs only rebuild what changed.
The last line of standard output is the result as one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics; the traced run also writes its host spans next to the
build. See perfbench/README.md for what each metric means.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "rmi", "gc", "kv")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, env):
    """Runs a build step, keeping its output out of stdout."""
    with open(log_path, "a") as log:
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Montsalvat sources (src/) are missing from this checkout")
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log_path, env)
    run_logged(["cmake", "--build", build_dir, "-j", BUILD_JOBS], log_path,
               env)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("the build produced no perfbench binary")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the run printed no result (exit code %d)" % done.returncode)
    result = json.loads(lines[-1])
    if done.returncode != 0 or result.get("correct") is not True:
        print(lines[-1])
        fail("the workload's outputs are wrong (exit code %d)"
             % done.returncode)

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    print(lines[-1])


if __name__ == "__main__":
    main()
