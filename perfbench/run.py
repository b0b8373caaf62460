#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads and metrics are listed in BENCHMARK.json. The build goes to
$CARGO_TARGET_DIR, or to .bench_build/ when that is unset. The last line of
standard output is the run's JSON result; the exit code is non-zero when
the build fails, a history is not linearizable, an oracle rejects a
campaign, an operation fails, or the result does not list exactly the
metrics BENCHMARK.json names for the run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
# Pause after a build before measuring.
SETTLE_S = 15


def mtime(path):
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {a.workload}")
    expected = spec["per_layer" if a.trace == "1" else "end_to_end"]

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    binary = os.path.join(target, "release", "abd-perfbench")
    before = mtime(binary)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("build failed")
    if mtime(binary) != before:
        # For some seconds after a build the machine is still busy with
        # its after-effects, and runtime latencies measured then come out
        # in a different mode (about 25% lower p50, far higher p99).
        time.sleep(SETTLE_S)

    cmd = [binary,
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"the run did not end within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        print(lines[-1])
        sys.exit(run.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.exit(f"metrics {got} do not match BENCHMARK.json {want}")
    print(lines[-1])


if __name__ == "__main__":
    main()
