#!/usr/bin/env python3
"""Builds and runs the usca campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the usca library from src/ plus the
benchmark program) with CMake into <build>/perfbench, where <build> is
CARGO_TARGET_DIR (default .bench_build) under the repository root, then
runs one measurement and forwards its JSON result line.  Build output goes
to stderr; stdout carries only the result.  USCA_* variables are removed
from the benchmark's environment, so knobs such as USCA_SIM_BATCH cannot
change the measured path.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("inorder_live", "ooo_batched", "ooo_spec", "replay_windows")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = max(1, min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "--parallel",
                    str(jobs)], check=True, stdout=sys.stderr)
    return build_dir / "campaign_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description="usca campaign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1
    scratch = build_dir / "scratch"
    scratch.mkdir(exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("USCA_")}
    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed % 2**64),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        # On timeout, subprocess.run kills the benchmark and waits for it.
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return result.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
