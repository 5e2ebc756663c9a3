#!/usr/bin/env python3
"""Build and run the paper-scale benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dec_session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the program's libraries from src/ plus the benchmark binary) into
.bench_build/; later runs only re-check the build. Build output goes to
stderr, so the last line of stdout is the benchmark's result object. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("dec_session", "ma_deposits", "pbs_session")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_sha256(root):
    """Digest of src/ and perfbench/ sources: names the build when the
    checkout has no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    run_dir = os.path.join(root, ".bench_build", "run")
    if not build(root, build_dir):
        log("build failed")
        return 2
    os.makedirs(run_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--git-sha", git_sha(root),
           "--source-sha256", source_sha256(root)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded its time limit")
        return 3


if __name__ == "__main__":
    sys.exit(main())
