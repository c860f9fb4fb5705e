#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr, so the last line of
standard output is the JSON result. --trace 0 runs the untraced
executable (end-to-end metrics), --trace 1 the traced one (per-layer metrics;
spans are written under <build>/run/). Exits non-zero without a result
when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream_hot", "pull_hot", "disk_cold", "paper_sync")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds both executables; returns True on success."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: serve through a tile-damaging store")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(out, "run")
    os.makedirs(workdir, exist_ok=True)
    binary = os.path.join(out, "perfbench_serve_traced" if args.trace
                          else "perfbench_serve")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--workdir", workdir]
    if args.corrupt:
        command.append("--corrupt")
    sys.stdout.flush()
    with subprocess.Popen(command) as child:
        try:
            return child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
