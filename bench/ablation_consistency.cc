// Ablation: the consistency/durability spectrum (§7, "Supporting other
// storage systems"). The same 1KB write is issued at four service levels,
// all NIC-offloaded, on loaded replicas:
//
//   full ACID txn      wrLock + Append + ExecuteAndAdvance + unlock
//                      (MongoDB mode, §5.2)
//   durable log only   Append (gWRITE+gFLUSH); execution off critical path
//                      (RocksDB mode, §5.1)
//   non-durable repl.  gWRITE without gFLUSH (RAMCloud-like semantics)
//   local only         no replication (the unreplicated lower bound)
//
// The paper's point: the primitives compose, so weaker models simply drop
// steps and gain latency.
#include <cstdio>

#include "bench/common.h"
#include "core/lock.h"
#include "core/txn.h"
#include "core/wal.h"

int main(int argc, char** argv) {
  using namespace hyperloop::bench;
  namespace core = hyperloop::core;
  uint64_t ops = 1500;
  if (argc > 1) ops = std::strtoull(argv[1], nullptr, 10);

  auto cluster = make_cluster(3, 7777);
  for (size_t s = 0; s < 3; ++s) add_stress(*cluster, s, kPaperIntensity);

  core::RegionLayout layout;
  layout.region_size = 4u << 20;
  layout.log_size = 1u << 20;
  layout.num_locks = 64;
  auto group_base = make_group(*cluster, 3, Backend::kHyperLoop,
                               layout.region_size);
  auto* group = group_base.get();
  core::ReplicatedWal wal(*group, layout);
  core::GroupLockManager locks(*group, layout);
  core::TransactionManager txns(*group, wal, locks, cluster->loop());
  cluster->loop().run_until(hyperloop::sim::msec(20));

  std::vector<uint8_t> value(1024, 0x42);
  group->client_store(layout.db_base(), value.data(),
                      static_cast<uint32_t>(value.size()));

  std::printf("=== Ablation: consistency spectrum (1KB writes, group=3, "
              "loaded replicas) ===\n");
  hyperloop::stats::Table table(
      {"level", "avg(us)", "p99(us)", "durable?", "executed on replicas?"});

  // Full ACID transaction.
  {
    uint64_t k = 0;
    auto lat = closed_loop(cluster->loop(), ops,
                           [&](std::function<void()> done) {
                             std::vector<core::ReplicatedWal::Entry> w;
                             w.push_back({(k % 512) * 1024, value});
                             txns.execute(std::move(w),
                                          {static_cast<uint32_t>(k % 64)},
                                          [done = std::move(done)](bool) {
                                            done();
                                          });
                             ++k;
                           });
    table.add_row({"ACID txn", hyperloop::stats::Table::num(lat.mean() / 1e3),
                   hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                   "yes", "yes (in txn)"});
  }
  // Durable log append only.
  {
    uint64_t k = 0;
    auto lat = closed_loop(
        cluster->loop(), ops, [&](std::function<void()> done) {
          // Checkpoint off the critical path when the log fills (the
          // KvStore pattern).
          while (wal.used_bytes() > layout.log_size / 2 &&
                 wal.execute_and_advance([] {})) {
          }
          std::vector<core::ReplicatedWal::Entry> w;
          w.push_back({(k % 512) * 1024, value});
          ++k;
          auto done_sp =
              std::make_shared<std::function<void()>>(std::move(done));
          if (!wal.append(w, [done_sp](uint64_t) { (*done_sp)(); })) {
            // Log full despite checkpointing: retry shortly.
            cluster->loop().schedule_after(hyperloop::sim::usec(100),
                                           [done_sp] { (*done_sp)(); });
          }
        });
    table.add_row({"durable log (RocksDB mode)",
                   hyperloop::stats::Table::num(lat.mean() / 1e3),
                   hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                   "yes", "deferred"});
  }
  // Non-durable replication.
  {
    auto lat = closed_loop(cluster->loop(), ops,
                           [&](std::function<void()> done) {
                             group->gwrite(layout.db_base(), 1024,
                                           /*flush=*/false, std::move(done));
                           });
    table.add_row({"volatile replication (RAMCloud-like)",
                   hyperloop::stats::Table::num(lat.mean() / 1e3),
                   hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                   "no", "n/a"});
  }
  // Local only.
  {
    auto lat = closed_loop(cluster->loop(), ops,
                           [&](std::function<void()> done) {
                             group->client_store(layout.db_base(),
                                                 value.data(), 1024);
                             cluster->loop().schedule_after(
                                 hyperloop::sim::nsec(500), std::move(done));
                           });
    table.add_row({"local only (no replication)",
                   hyperloop::stats::Table::num(lat.mean() / 1e3),
                   hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                   "local", "n/a"});
  }
  table.print();
  return 0;
}
