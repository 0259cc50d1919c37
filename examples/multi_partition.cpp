// Cross-partition transactions: two independently replicated partitions
// (each its own HyperLoop chain) updated atomically with two-phase commit,
// then a coordinator-crash scenario recovered by roll-forward. Exits
// non-zero unless the order commits on both partitions and the
// roll-forward completes the crashed transaction.
//
//   build/examples/multi_partition
#include <cstdio>
#include <cstring>

#include "core/hyperloop_group.h"
#include "core/lock.h"
#include "core/server.h"
#include "core/two_phase.h"
#include "core/wal.h"

using namespace hyperloop;

int main() {
  core::Cluster::Config cc;
  cc.num_servers = 4;
  core::Cluster cluster(cc);

  core::RegionLayout layout;
  layout.region_size = 2u << 20;
  layout.log_size = 256 << 10;
  layout.num_locks = 32;

  struct Part {
    std::unique_ptr<core::HyperLoopGroup> group;
    std::unique_ptr<core::ReplicatedWal> wal;
    std::unique_ptr<core::GroupLockManager> locks;
  };
  std::vector<Part> parts;
  std::vector<core::TwoPhaseCoordinator::PartitionCtx> ctxs;
  for (int p = 0; p < 2; ++p) {
    Part part;
    core::HyperLoopGroup::Config gc;
    gc.region_size = layout.region_size;
    std::vector<core::Server*> reps = {&cluster.server(0), &cluster.server(1),
                                       &cluster.server(2)};
    part.group =
        std::make_unique<core::HyperLoopGroup>(cluster.server(3), reps, gc);
    part.wal = std::make_unique<core::ReplicatedWal>(*part.group, layout);
    part.locks = std::make_unique<core::GroupLockManager>(*part.group, layout);
    ctxs.push_back(
        {part.group.get(), part.wal.get(), part.locks.get(), layout});
    parts.push_back(std::move(part));
  }
  core::TwoPhaseCoordinator coord(cluster.loop(), std::move(ctxs));
  const uint64_t base = coord.app_data_base();

  auto bytes = [](uint64_t v) {
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    return b;
  };

  // A user's account lives in partition 0, their order book in partition 1:
  // "place order" must debit and enqueue atomically.
  bool done = false;
  coord.execute({{0, base + 0, 1, bytes(900)},   // balance 1000 -> 900
                 {1, base + 0, 1, bytes(1)}},    // one order queued
                [&](bool ok) { done = ok; });
  cluster.loop().run_until(sim::msec(50));
  std::printf("order txn committed: %s (committed=%llu)\n",
              done ? "yes" : "no",
              static_cast<unsigned long long>(coord.committed()));
  uint64_t bal = 0, orders = 0;
  parts[0].group->replica_load(2, layout.db_base() + base, &bal, 8);
  parts[1].group->replica_load(2, layout.db_base() + base, &orders, 8);
  std::printf("partition 0 (balances) replica 2: %llu; partition 1 (orders) "
              "replica 2: %llu\n",
              (unsigned long long)bal, (unsigned long long)orders);

  // Coordinator-crash drill: a transaction that reached COMMITTED on
  // partition 1 but only PREPARED on partition 0. Recovery scans all
  // status tables and rolls partition 0 forward from its staging block.
  std::printf("\n-- simulating a coordinator crash between commit appends --\n");
  const uint64_t txn = 500;
  {
    uint32_t count = 1;
    uint64_t target = base + 64;
    uint32_t len = 8;
    uint64_t value = 424242;
    std::vector<uint8_t> staging(32, 0);
    std::memcpy(staging.data(), &count, 4);
    std::memcpy(staging.data() + 8, &target, 8);
    std::memcpy(staging.data() + 16, &len, 4);
    std::memcpy(staging.data() + 24, &value, 8);
    std::vector<uint8_t> status(16);
    std::memcpy(status.data(), &txn, 8);
    uint64_t st = core::TwoPhaseCoordinator::kPrepared;
    std::memcpy(status.data() + 8, &st, 8);
    parts[0].wal->append({{coord.staging_offset(txn), staging},
                          {coord.status_offset(txn), status}},
                         [](uint64_t) {});
    st = core::TwoPhaseCoordinator::kCommitted;
    std::memcpy(status.data() + 8, &st, 8);
    parts[1].wal->append({{coord.status_offset(txn), status}}, [](uint64_t) {});
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(20));
  parts[0].wal->execute_and_advance([] {});
  parts[1].wal->execute_and_advance([] {});
  cluster.loop().run_until(cluster.loop().now() + sim::msec(20));

  // Recovery: collect globally committed txn ids, then repair partitions.
  std::vector<std::pair<uint64_t, uint64_t>> st;
  coord.scan_status(0, &st);
  coord.scan_status(1, &st);
  std::vector<uint64_t> committed_ids;
  for (auto& [id, state] : st) {
    if (state == core::TwoPhaseCoordinator::kCommitted) {
      committed_ids.push_back(id);
    }
  }
  const uint64_t repaired = coord.recover_partition(0, committed_ids);
  cluster.loop().run_until(cluster.loop().now() + sim::msec(50));
  uint64_t v = 0;
  parts[0].group->replica_load(1, layout.db_base() + base + 64, &v, 8);
  std::printf("rolled forward %llu txn(s); partition 0 replica 1 now holds "
              "%llu at the target cell\n",
              (unsigned long long)repaired, (unsigned long long)v);
  return done && bal == 900 && orders == 1 && v == 424242 ? 0 : 1;
}
