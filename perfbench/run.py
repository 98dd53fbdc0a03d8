#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--domains D]

Run from the root of a checkout of the repository. The program is built
from source with dune, then started once per set-up sample and once for the
measured run, each time in a fresh process with a fresh, empty
BFLY_CACHE_DIR under _perfbench/ and BFLY_DOMAINS set to nproc (or --domains).
The last line printed is the result object; the line before it is the
report (units, sample counts, environment, correctness). See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("expand-exact", "bisect-ml", "serve-zipf")
# Set-up runs per measurement besides the measured run's own; setup_s is
# the median of all of them.
SETUP_SAMPLES = 20
# A run may take this long before it is stopped.
TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    """The checked-out commit, read from .git without running git, or ''."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return ""


def run(args, env, work):
    """Run main.exe with a fresh cache directory; returns its stdout lines."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=work)
    os.rmdir(cache)  # the program creates it, as part of its set-up
    try:
        proc = subprocess.run(
            [EXE] + args,
            env=dict(env, BFLY_CACHE_DIR=cache),
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args), 3)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        fail("exit %d: %s" % (proc.returncode, " ".join(args)), 3)
    return proc.stdout.splitlines()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--domains", type=int, default=len(os.sched_getaffinity(0)))
    a = p.parse_args()

    for need in ("dune-project", os.path.join("lib", "serve", "job.ml")):
        if not os.path.exists(need):
            fail("run from the root of a checkout (missing %s)" % need)
    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
        timeout=850,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    env = dict(
        os.environ,
        BFLY_DOMAINS=str(a.domains),
        PERFBENCH_NPROC=str(len(os.sched_getaffinity(0))),
        PERFBENCH_COMMIT=commit(),
    )
    for var in ("BFLY_CACHE", "BFLY_CACHE_LRU", "BFLY_SERVE_QUEUE",
                "BFLY_SERVE_CLIENT_QUEUE"):
        env.pop(var, None)
    os.makedirs("_perfbench", exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir="_perfbench")
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds)]
        samples = []
        if a.trace == 0:
            for _ in range(SETUP_SAMPLES):
                last = run(common + ["--setup-only"], env, work)[-1]
                samples.append(json.loads(last)["setup_s"])
        lines = run(
            common + ["--trace", str(a.trace),
                      "--setup-samples", ",".join(repr(s) for s in samples)],
            env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not lines:
        fail("no result", 3)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
