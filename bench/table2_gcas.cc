// Table 2: gCAS latency, Naïve-RDMA vs HyperLoop (group size 3, background
// tenants on the replicas).
//
// Paper: Naïve-RDMA 539 / 3928 / 11886 us (avg / p95 / p99) vs HyperLoop
// 10 / 13 / 14 us — a 53.9x average and 849x p99 reduction. The shape to
// reproduce: HyperLoop's average and tail are within a few microseconds of
// each other; the baseline's tail is ~3 orders of magnitude worse.
//
// The binary exits 1 unless the p99 reduction is at least 100x and
// HyperLoop's p99 is at most 1.1x its average; it prints each failed check
// to stderr. Each system runs on one cluster seed, so the 100x floor rests
// on that one seed, with a 12x margin (the reduction is ~1250x). ctest
// runs it as figure.table2_gcas.
#include <cstdio>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace hyperloop::bench;
  uint64_t ops = 2000;
  if (argc > 1) ops = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Table 2: gCAS latency (group=3, loaded replicas) ===\n");
  hyperloop::stats::Table table(
      {"system", "avg(us)", "p95(us)", "p99(us)"});

  hyperloop::stats::Histogram results[2];
  for (int which = 0; which < 2; ++which) {
    const Backend backend =
        which == 0 ? Backend::kNaiveEvent : Backend::kHyperLoop;
    auto cluster = make_cluster(3, /*seed=*/777 + which);
    for (size_t s = 0; s < 3; ++s) add_stress(*cluster, s, kPaperIntensity);
    auto group = make_group(*cluster, 3, backend);
    cluster->loop().run_until(hyperloop::sim::msec(20));

    uint64_t flip = 0;
    results[which] = closed_loop(
        cluster->loop(), ops, [&](std::function<void()> done) {
          // Alternate acquire/release so every CAS succeeds.
          const uint64_t expected = flip % 2 == 0 ? 0 : 1;
          const uint64_t desired = 1 - expected;
          ++flip;
          group->gcas(0, expected, desired,
                      hyperloop::core::ExecMap::all(3),
                      [done = std::move(done)](
                          const hyperloop::core::CasResult&) { done(); });
        });
  }

  const char* names[2] = {"Naive-RDMA", "HyperLoop"};
  for (int i = 0; i < 2; ++i) {
    table.add_row({names[i],
                   hyperloop::stats::Table::num(results[i].mean() / 1e3),
                   hyperloop::stats::Table::num(results[i].percentile(95) / 1e3),
                   hyperloop::stats::Table::num(results[i].percentile(99) / 1e3)});
  }
  table.print();
  const double hl_p99 = double(results[1].percentile(99));
  const double p99_x = double(results[0].percentile(99)) / hl_p99;
  std::printf("p99 reduction: %.1fx, avg reduction: %.1fx\n", p99_x,
              results[0].mean() / results[1].mean());
  bool shape = true;
  if (p99_x < 100.0) {
    std::fprintf(stderr,
                 "Table 2: p99 reduction %.1fx is below the 100x floor\n",
                 p99_x);
    shape = false;
  }
  if (hl_p99 > 1.1 * results[1].mean()) {
    std::fprintf(stderr,
                 "Table 2: HyperLoop p99 %.1f us is above 1.1x its average "
                 "%.1f us\n",
                 hl_p99 / 1e3, results[1].mean() / 1e3);
    shape = false;
  }
  return shape ? 0 : 1;
}
