#!/usr/bin/env python3
"""Request-path benchmark driver.

One workload, one run (the JSON result is the last line of stdout):

    python3 perfbench/run.py --workload warm-2d --seed 1 --seconds 10 --trace 0

Every workload, untraced and traced, with every metric printed by name
and unit (served-2d also searches its rate ladder):

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

Run from the root of a checkout of the repository. The benchmark is built
from source there, in the release profile, into .bench_build/; traced
runs write their Chrome trace files to .bench_out/. Requires the OCaml
toolchain with dune on PATH.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "e2e.exe")
WORKLOADS = ["warm-2d", "dynamic-2d", "served-2d", "cg-3d"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_bounded(cmd, timeout, **kw):
    """Run [cmd] in its own process group; kill the group on timeout and
    wait for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        return None, None
    return proc.returncode, out


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("not a checkout of the repository: %s missing" % needed)
            return False
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache=disabled", "--no-config",
           "--require-dune-project-file", "--display", "quiet",
           "./perfbench/e2e.exe"]
    code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        log("build failed")
        return False
    return True


def run_one(workload, seed, seconds, trace, extra=()):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    return run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")
    if not build():
        return 2
    if not args.all:
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        if out:
            sys.stdout.write(out)
        return 1 if code is None else code
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            extra = ["--ladder"] if (w == "served-2d" and trace == 0) else []
            log("== %s, %s" % (w, "traced" if trace else "untraced"))
            code, out = run_one(w, args.seed, args.seconds, trace, extra)
            if code != 0 or not out or '"correct": true' not in out:
                failures += 1
                log("FAILED: %s trace=%d (exit %s)" % (w, trace, code))
    log("%d of %d runs failed" % (failures, 2 * len(WORKLOADS)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
