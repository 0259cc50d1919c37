// Figure 11: latency distribution of replicated RocksDB (our KvStore)
// under YCSB-A updates, for three replication back-ends co-located with
// I/O-intensive background tasks (10:1 threads-to-cores):
//
//   Naive-Event    event-driven Naïve-RDMA
//   Naive-Polling  shared (un-pinned) polling Naïve-RDMA
//   HyperLoop      NIC-offloaded
//
// Paper's shape: HyperLoop's tail is 5.7x lower than Naive-Event and
// 24.2x lower than Naive-Polling — notably, polling *loses* to events
// under multi-tenancy because co-located pollers inflate contention.
// Each p99 rests on the few slowest of 1500 updates, and the Naive order
// flips on some cluster seeds, so every backend runs on five cluster
// seeds (31337 + 100k + b for k = 0..4) and the gate reads the median
// p99. The binary prints each seed's table and exits 1 unless the
// medians show all three: HyperLoop's p99 at least 5.7x below
// Naive-Event's and 24.2x below Naive-Polling's, and Naive-Polling's p99
// above Naive-Event's. ctest runs it as figure.fig11_rocksdb.
#include <algorithm>
#include <cstdio>

#include "apps/kvstore/kvstore.h"
#include "apps/ycsb/driver.h"
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace hyperloop::bench;
  using namespace hyperloop::apps;
  uint64_t ops = 1500;
  if (argc > 1) ops = std::strtoull(argv[1], nullptr, 10);
  const uint64_t records = 2000;
  const uint32_t value_size = 1024;

  std::printf(
      "=== Figure 11: replicated RocksDB (KvStore), YCSB-A updates, "
      "co-located tenants ===\n");

  const Backend backends[3] = {Backend::kNaiveEvent, Backend::kNaivePolling,
                               Backend::kHyperLoop};
  constexpr int kSeeds = 5;
  double p99s[3][kSeeds] = {};
  for (int k = 0; k < kSeeds; ++k) {
    if (k > 0) std::printf("cluster seeds %d + b:\n", 31337 + 100 * k);
    hyperloop::stats::Table table({"system", "avg(us)", "p95(us)", "p99(us)",
                                   "backup CPU(%)"});
    for (int b = 0; b < 3; ++b) {
      auto cluster = make_cluster(3, 31337 + 100 * k + b);
      // Co-located I/O-intensive instances on every server, including the
      // one embedding the store.
      for (size_t s = 0; s < 4; ++s) add_stress(*cluster, s, kPaperIntensity);

      hyperloop::core::RegionLayout layout;
      layout.region_size = 8u << 20;
      layout.log_size = 1u << 20;
      layout.num_locks = 64;
      std::unique_ptr<hyperloop::core::BackendGroup> group;
      if (backends[b] == Backend::kHyperLoop) {
        group =
            make_group(*cluster, 3, Backend::kHyperLoop, layout.region_size);
      } else {
        hyperloop::core::NaiveRdmaGroup::Config gc;
        gc.region_size = layout.region_size;
        gc.mode = backends[b] == Backend::kNaivePolling
                      ? hyperloop::core::NaiveRdmaGroup::Mode::kSharedPolling
                      : hyperloop::core::NaiveRdmaGroup::Mode::kEvent;
        gc.max_inflight = 64;
        gc.recv_slots = 512;
        std::vector<Server*> reps = {&cluster->server(0), &cluster->server(1),
                                     &cluster->server(2)};
        group = std::make_unique<hyperloop::core::NaiveRdmaGroup>(
            cluster->server(3), reps, gc);
      }

      KvStore::Config kc;
      kc.layout = layout;
      kc.value_size = value_size;
      std::vector<hyperloop::core::Server*> reps = {
          &cluster->server(0), &cluster->server(1), &cluster->server(2)};
      KvStore store(*group, cluster->server(3), reps, kc);
      store.bulk_load(records);
      cluster->loop().run_until(cluster->loop().now() +
                                hyperloop::sim::msec(100));

      WorkloadSpec spec = WorkloadSpec::A();
      spec.value_size = value_size;
      WorkloadGenerator gen(spec, records, cluster->fork_rng());
      YcsbDriver::Config dc;
      dc.threads = 4;
      dc.total_ops = ops;
      YcsbDriver driver(cluster->loop(), store, gen, dc);

      const hyperloop::sim::Time t0 = cluster->loop().now();
      bool complete = false;
      driver.start([&] { complete = true; });
      while (!complete &&
             cluster->loop().now() < t0 + hyperloop::sim::seconds(600)) {
        cluster->loop().run_until(cluster->loop().now() +
                                  hyperloop::sim::msec(100));
      }
      const double secs = hyperloop::sim::to_sec(cluster->loop().now() - t0);

      // Backup CPU: the replication handler processes on the 3 replicas
      // (HyperLoop: only the periodic ring-refill task).
      double backup_cpu = 0;
      for (size_t r = 0; r < 3; ++r) {
        backup_cpu += hyperloop::sim::to_sec(group->replica_cpu_time(r));
      }
      backup_cpu = backup_cpu / (secs * 3) * 100.0;

      const auto lat = driver.latency(OpType::kUpdate);
      p99s[b][k] = static_cast<double>(lat.percentile(99));
      table.add_row({backend_name(backends[b]),
                     hyperloop::stats::Table::num(lat.mean() / 1e3),
                     hyperloop::stats::Table::num(lat.percentile(95) / 1e3),
                     hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                     hyperloop::stats::Table::num(backup_cpu, 2)});
    }
    table.print();
  }

  double median[3];
  for (int b = 0; b < 3; ++b) {
    std::sort(p99s[b], p99s[b] + kSeeds);
    median[b] = p99s[b][kSeeds / 2];
  }
  std::printf("median p99(us) over %d cluster seeds: Naive-Event %.1f, "
              "Naive-Polling %.1f, HyperLoop %.1f\n",
              kSeeds, median[0] / 1e3, median[1] / 1e3, median[2] / 1e3);
  const double event_x = median[0] / median[2];
  const double polling_x = median[1] / median[2];
  std::printf("median p99 vs HyperLoop: Naive-Event %.1fx, "
              "Naive-Polling %.1fx\n",
              event_x, polling_x);
  const bool shape =
      event_x >= 5.7 && polling_x >= 24.2 && median[1] > median[0];
  std::printf("paper shape on the medians (Naive-Event >= 5.7x, "
              "Naive-Polling >= 24.2x, Naive-Polling p99 > Naive-Event "
              "p99): %s\n",
              shape ? "holds" : "FAILS");
  return shape ? 0 : 1;
}
