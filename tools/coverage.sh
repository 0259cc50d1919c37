#!/usr/bin/env sh
# Line coverage of src/ over everything the repository runs: the
# examples, the bench figure binaries, perf_selfcheck, the perfbench
# workloads and ctest. Builds a Debug tree with --coverage (and a Release
# --coverage build of perfbench inside it), runs everything but ctest,
# takes a snapshot, then runs ctest. Prints, per src/ file, the lines
# that no run executed:
#
#   src/core/wal.cc: 3 unexecuted: 212 240-241
#
# and then the lines that only ctest executed:
#
#   src/rdma/nic.cc: 4 test-only: 120-123
#
# A line counts as executed if any translation unit executed it, so
# header code instantiated by a test counts. Needs gcc's gcov (gcc >= 9,
# for --json-format) and python3.
#
# Usage: tools/coverage.sh [build dir]   (default: build/coverage)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
B=${1:-$ROOT/build/coverage}
JOBS=$(nproc)

cmake -S "$ROOT" -B "$B" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  >/dev/null
cmake --build "$B" -j"$JOBS" >/dev/null
cmake -S "$ROOT/perfbench" -B "$B/perfbench" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  >/dev/null
cmake --build "$B/perfbench" -j"$JOBS" >/dev/null
find "$B" -name '*.gcda' -delete

for x in bank_ledger chain_failover multi_partition quickstart replicated_kv; do
  "$B/examples/$x" >/dev/null
done
for x in fig2_multitenancy fig8_gwrite_gmemcpy fig9_throughput_cpu \
    fig10_group_size fig11_rocksdb fig12_mongodb table2_gcas calibrate \
    ablation_consistency ablation_fanout ablation_flush ablation_qp_scaling \
    ablation_refill; do
  "$B/bench/$x" >/dev/null
done
"$B/bench/perf_selfcheck" --benchmark_min_time=0.01 >/dev/null 2>&1
for w in kv-write kv-scan doc-txn; do
  "$B/perfbench/ycsb_bench" --workload "$w" --seed 1 --ops 3000 \
    --seconds 0 --trace 1 >/dev/null
done

# One JSON document per .gcda on stdout.
gcov_docs() {
  find "$B" -name '*.gcda' | while read -r f; do
    (cd "$(dirname "$f")" && gcov --json-format --stdout "$f" 2>/dev/null)
  done
}
gcov_docs >"$B/coverage-no-ctest.jsonl"
(cd "$B" && ctest -j"$JOBS" >/dev/null) || echo "coverage: ctest failed" >&2
gcov_docs >"$B/coverage-all.jsonl"

# Merge per source line; print the never-executed lines, then the lines
# executed only once ctest ran.
python3 - "$ROOT" "$B/coverage-no-ctest.jsonl" "$B/coverage-all.jsonl" <<'EOF'
import json, os, sys
root = sys.argv[1]

def hits(path):
    out = {}
    with open(path) as docs:
        for doc in docs:
            doc = doc.strip()
            if not doc:
                continue
            for f in json.loads(doc)["files"]:
                rel = os.path.relpath(
                    os.path.realpath(os.path.join(root, f["file"])), root)
                if not rel.startswith("src/"):
                    continue
                lines = out.setdefault(rel, {})
                for l in f["lines"]:
                    n = l["line_number"]
                    lines[n] = lines.get(n, 0) + l["count"]
    return out

def report(label, picked):
    total = 0
    for path in sorted(picked):
        lines = picked[path]
        if not lines:
            continue
        total += len(lines)
        spans, start = [], lines[0]
        for a, b in zip(lines, lines[1:] + [None]):
            if b != a + 1:
                spans.append(str(start) if start == a else "%d-%d" % (start, a))
                start = b
        print("%s: %d %s: %s" % (path, len(lines), label, " ".join(spans)))
    return total

before, after = hits(sys.argv[2]), hits(sys.argv[3])
dead = {p: sorted(n for n, c in ls.items() if c == 0) for p, ls in after.items()}
print("total: %d unexecuted src/ lines" % report("unexecuted", dead))
only = {p: sorted(n for n, c in ls.items()
                  if c > 0 and before.get(p, {}).get(n, 0) == 0)
        for p, ls in after.items()}
print("total: %d src/ lines executed only by ctest" % report("test-only", only))
EOF
