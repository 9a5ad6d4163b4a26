#!/usr/bin/env python3
"""Build the release daemon and the benchmark, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload gp_durable|search_open|traveler_batch|all \
        --seed N --seconds N --trace 0|1

Builds `sse-serverd` from the repository workspace and the `perfbench`
package into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark binary, which starts the daemon as a child process. Build output
goes to stderr; the benchmark's report goes to stdout and ends with one
JSON line. Everything the run writes stays under the target directory.
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ["gp_durable", "traveler_batch", "search_open"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "sse-server", "--bin", "sse-serverd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_one(root, target, workload, args))
    return status


def run_one(root: str, target: str, workload: str, args: argparse.Namespace) -> int:
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(release, "sse-serverd"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # A session of its own, so a timeout can stop the daemon it started too.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
