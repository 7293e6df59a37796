#!/usr/bin/env python3
"""Build hmmbench from this checkout and run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the simulator from the
sources next to it) into .bench_build/perfbench, a no-op when nothing
changed, then runs hmmbench.  Build output goes to stderr; hmmbench's
stdout is passed through, so its last line is the JSON result.  Exits 2
without a result when the build fails (e.g. the simulator sources are
missing), otherwise with hmmbench's own exit code.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sum-global", "conv-shared", "sort-sweep", "service-mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build hmmbench and hmmsimd; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            # A half-written cache would skip configuration next time.
            shutil.rmtree(os.path.join(ROOT, BUILD), ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "hmmbench", "hmmsimd",
           "-j", jobs]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def commit_id():
    """The git commit, or a content hash of the sources when not a repo."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        log("build failed; no result")
        return 2
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    cmd = [os.path.join(BUILD, "hmmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--hmmsimd", os.path.join(BUILD, "hmmsimd"),
           "--run-dir", run_dir, "--commit", commit_id()]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("hmmbench timed out; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
