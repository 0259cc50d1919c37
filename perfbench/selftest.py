#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py [--ops 3000]

For every workload in BENCHMARK.json, using short runs through run.py:
  1. two runs with the same seed give bit-identical simulated end-to-end
     metrics and per-layer counts (wall-clock metrics excluded);
  2. every metric BENCHMARK.json names appears in the output with its unit,
     and the last line has exactly the keys the contract asks for;
  3. flipping one replica byte before the check fails the run.
Exits 0 if all hold, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Measured on the host, so they differ between runs of the same seed.
WALL_CLOCK = {"setup_s", "wall_ops_per_s", "peak_rss_mb", "trace.overhead_pct"}


def run(workload, seed, trace, ops, corrupt=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--ops", str(ops)]
    if corrupt:
        cmd.append("--corrupt-replica-byte")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            outs = [run(wl, args.seed, trace, args.ops) for _ in range(2)]
            for code, res in outs:
                check(code == 0 and res is not None and res["correct"],
                      f"{wl} trace={trace}: run passes its own check")
            res = outs[0][1] or {}
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace={trace}: result keys")
            got = res.get("metrics", {})
            for m in spec[key]:
                check(got.get(m["name"], {}).get("unit") == m["unit"],
                      f"{wl} trace={trace}: reports {m['name']} [{m['unit']}]")
            a, b = (r[1]["metrics"] if r[1] else {} for r in outs)
            same = all(a[n]["value"] == b[n]["value"]
                       for n in a if n not in WALL_CLOCK and n in b)
            check(same and set(a) == set(b),
                  f"{wl} trace={trace}: same seed, bit-identical simulated metrics")
        code, res = run(wl, args.seed, 0, args.ops, corrupt=True)
        check(code != 0 and res is not None and res["correct"] is False,
              f"{wl}: a flipped replica byte fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
