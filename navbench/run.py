#!/usr/bin/env python3
"""Build navbench from source, then run one workload.

    python3 navbench/run.py --workload mm-coarse --seed 1 --seconds 10 --trace 0

Run from the root of a NavCpp checkout.  The build goes to
.bench_build/navbench (Release); the first run configures and compiles,
later runs only re-check it.  Build output goes to standard error, so the
last line of standard output is navbench's JSON result.  The exit code is
navbench's, or 1 when the build fails or the run times out.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "navbench")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def local_env():
    """The environment with temporary files kept inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(env):
    """Configure (once) and build navbench and navcpp_worker."""
    steps = []
    # Written last by a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "cmake_install.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "navbench",
                  "navcpp_worker", "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        env = local_env()
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"navbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "navbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        # run() kills the child on timeout and waits for it.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"navbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
