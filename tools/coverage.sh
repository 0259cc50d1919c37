#!/usr/bin/env sh
# Line coverage of src/ over everything the repository runs: ctest, the
# examples, the bench figure binaries and perf_selfcheck. Builds a Debug
# tree with --coverage, runs them all, then prints, per src/ file, the
# lines that no run executed:
#
#   src/core/wal.cc: 3 unexecuted: 212 240-241
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
find "$B" -name '*.gcda' -delete

(cd "$B" && ctest -j"$JOBS" >/dev/null) || echo "coverage: ctest failed" >&2
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

# One JSON document per .gcda on stdout; merge per source line.
find "$B" -name '*.gcda' | while read -r f; do
  (cd "$(dirname "$f")" && gcov --json-format --stdout "$f" 2>/dev/null)
done | python3 -c '
import json, os, sys
root = sys.argv[1]
hit = {}
for doc in sys.stdin:
    doc = doc.strip()
    if not doc:
        continue
    for f in json.loads(doc)["files"]:
        path = os.path.relpath(os.path.realpath(os.path.join(root, f["file"])), root)
        if not path.startswith("src/"):
            continue
        lines = hit.setdefault(path, {})
        for l in f["lines"]:
            n = l["line_number"]
            lines[n] = lines.get(n, 0) + l["count"]
total = 0
for path in sorted(hit):
    dead = sorted(n for n, c in hit[path].items() if c == 0)
    if not dead:
        continue
    total += len(dead)
    spans, start = [], dead[0]
    for a, b in zip(dead, dead[1:] + [None]):
        if b != a + 1:
            spans.append(str(start) if start == a else "%d-%d" % (start, a))
            start = b
    print("%s: %d unexecuted: %s" % (path, len(dead), " ".join(spans)))
print("total: %d unexecuted src/ lines" % total)
' "$ROOT"
