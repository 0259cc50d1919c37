// Figure 12: MongoDB (our DocStore) latency distribution across YCSB
// workloads A, B, C, D, E, F — native (kernel-TCP) replication vs
// HyperLoop-enabled replication, with 10:1 co-located tenants.
//
// Paper's shape: HyperLoop cuts insert/update average latency by ~79%,
// shrinks the avg<->p99 gap by ~81%, and drops backup-CPU utilization
// from ~100% (saturated) to ~0%. Reads improve less (they were already
// local); scans are dominated by cursor CPU either way.
#include <cstdio>

#include "apps/docstore/docstore.h"
#include "apps/ycsb/driver.h"
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace hyperloop::bench;
  using namespace hyperloop::apps;
  uint64_t ops = 800;
  if (argc > 1) ops = std::strtoull(argv[1], nullptr, 10);
  const uint64_t records = 4000;
  const uint32_t value_size = 1024;

  for (int which = 0; which < 2; ++which) {
    const bool hyper = which == 1;
    std::printf("=== Figure 12(%c): DocStore with %s replication ===\n",
                hyper ? 'b' : 'a', hyper ? "HyperLoop" : "native (TCP)");
    hyperloop::stats::Table table({"workload", "avg(ms)", "p95(ms)",
                                   "p99(ms)", "writes avg(ms)",
                                   "writes p99(ms)", "backup CPU(%)"});

    for (char w : {'A', 'B', 'C', 'D', 'E', 'F'}) {
      // Primary (front end) on server 0; backups on servers 1 and 2.
      auto cluster = make_cluster(2, 1000 + which * 100 + w);
      // In this experiment server index 2 (the last) hosts the client
      // (primary); 0 and 1 are the backups. All are co-located with
      // tenants.
      for (size_t s = 0; s < cluster->size(); ++s) {
        add_stress(*cluster, s, kPaperIntensity);
      }

      hyperloop::core::RegionLayout layout;
      layout.region_size = 16u << 20;
      layout.log_size = 1u << 20;
      layout.num_locks = 256;
      auto group = make_group(
          *cluster, 2, hyper ? Backend::kHyperLoop : Backend::kTcp,
          layout.region_size);

      DocStore::Config dc;
      dc.layout = layout;
      dc.value_size = value_size;
      dc.use_read_locks = false;  // reads served from the primary's copy
      DocStore store(*group, cluster->server(cluster->size() - 1), dc);
      store.bulk_load(records);
      cluster->loop().run_until(cluster->loop().now() +
                                hyperloop::sim::msec(200));

      WorkloadSpec spec = WorkloadSpec::by_name(w);
      spec.value_size = value_size;
      WorkloadGenerator gen(spec, records, cluster->fork_rng());
      YcsbDriver::Config drc;
      drc.threads = 4;
      drc.total_ops = ops;
      YcsbDriver driver(cluster->loop(), store, gen, drc);

      const hyperloop::sim::Time t0 = cluster->loop().now();
      bool complete = false;
      driver.start([&] { complete = true; });
      while (!complete &&
             cluster->loop().now() < t0 + hyperloop::sim::seconds(1200)) {
        cluster->loop().run_until(cluster->loop().now() +
                                  hyperloop::sim::msec(100));
      }
      const double secs = hyperloop::sim::to_sec(cluster->loop().now() - t0);

      double backup_cpu = 0;
      for (size_t r = 0; r < 2; ++r) {
        backup_cpu += hyperloop::sim::to_sec(group->replica_cpu_time(r));
      }
      backup_cpu = backup_cpu / (secs * 2) * 100.0;

      const auto all = driver.overall();
      const auto wr = driver.writes();
      table.add_row(
          {std::string(1, w), hyperloop::stats::Table::num(all.mean() / 1e6, 2),
           hyperloop::stats::Table::num(all.percentile(95) / 1e6, 2),
           hyperloop::stats::Table::num(all.percentile(99) / 1e6, 2),
           hyperloop::stats::Table::num(wr.count() ? wr.mean() / 1e6 : 0, 2),
           hyperloop::stats::Table::num(
               wr.count() ? wr.percentile(99) / 1e6 : 0, 2),
           hyperloop::stats::Table::num(backup_cpu, 2)});
      if (!complete) std::printf("(workload %c timed out)\n", w);
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
