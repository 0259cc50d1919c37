#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It configures and builds ycsb_bench in
Release mode under $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check the build. Build output goes to stderr. The
benchmark's own output, whose last line is the JSON result, goes to stdout,
and its exit code is passed through. Results and spans are also written to
<build dir>/perfbench-out.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    binary = build_dir / "ycsb_bench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--ops", type=int, default=0,
                    help="ops per rep (0 = the workload's default)")
    ap.add_argument("--corrupt-replica-byte", action="store_true",
                    help="flip one replica byte before the check (self-test)")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    out_dir = target / "perfbench-out"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(out_dir)]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.corrupt_replica_byte:
        cmd.append("--corrupt-replica-byte")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=sys.stdout, stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
