#!/usr/bin/env python3
"""Build and run the gbisect benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vcycle-gnp --seed 1 --seconds 30 --trace 0

Builds the benchmark and the gbisect CLI from source with dune into
.bench_build/, then runs one workload, or each in turn with --workload all.
A workload's last stdout line is its result object; the exit status is 0
only when every correctness check passed. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD = ".bench_build"
TIMEOUT_S = 170
WORKLOADS = ("vcycle-gnp", "paper-mix", "serve-open")


def run(workload, args):
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "default", "perfbench", "bench.exe"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD, "default", "bin", "gbisect_cli.exe"),
           "--scratch", scratch]
    # A session of its own, so a timeout, or a signal to this script,
    # also stops the daemon it started.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a gbisect checkout", file=sys.stderr)
        return 2

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD, "cache")))
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release",
         "./perfbench/bench.exe", "./bin/gbisect_cli.exe"],
        stdout=sys.stderr, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run(w, args) for w in workloads]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
