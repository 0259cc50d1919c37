#include "core/two_phase.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "chain_setup.h"
#include "sim/rng.h"
#include "unlock_order_probe.h"

namespace hyperloop::core {
namespace {

struct TwoPhaseFixture : ::testing::Test {
  static constexpr int kPartitions = 2;

  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout = [] {
    RegionLayout l;
    l.region_size = 2u << 20;
    l.log_size = 256 << 10;
    l.num_locks = 32;
    return l;
  }();

  struct Part {
    std::unique_ptr<HyperLoopGroup> group;
    std::unique_ptr<ReplicatedWal> wal;
    std::unique_ptr<GroupLockManager> locks;
  };
  std::vector<Part> parts;
  std::unique_ptr<TwoPhaseCoordinator> coord;

  void SetUp() override {
    std::vector<TwoPhaseCoordinator::PartitionCtx> ctxs;
    for (int p = 0; p < kPartitions; ++p) {
      Part part;
      part.group = make_chain(cluster, {.region_size = layout.region_size,
                                        .ring_slots = 128,
                                        .max_inflight = 32});
      part.wal = std::make_unique<ReplicatedWal>(*part.group, layout);
      part.locks = std::make_unique<GroupLockManager>(*part.group, layout);
      ctxs.push_back({part.group.get(), part.wal.get(), part.locks.get(),
                      layout});
      parts.push_back(std::move(part));
    }
    coord = std::make_unique<TwoPhaseCoordinator>(cluster.loop(),
                                                  std::move(ctxs));
  }

  void run(sim::Duration d = sim::msec(500)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  std::vector<uint8_t> bytes(uint64_t v) {
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    return b;
  }
  uint64_t db_read(int part, size_t replica, uint64_t off) {
    uint64_t v = 0;
    parts[static_cast<size_t>(part)].group->replica_load(
        replica, layout.db_base() + off, &v, 8);
    return v;
  }
};

TEST_F(TwoPhaseFixture, CrossPartitionCommitAppliesEverywhere) {
  const uint64_t base = coord->app_data_base();
  bool committed = false;
  coord->execute({{0, base + 0, 1, bytes(111)}, {1, base + 64, 2, bytes(222)}},
                 [&](bool ok) { committed = ok; });
  run();
  ASSERT_TRUE(committed);
  EXPECT_EQ(coord->committed(), 1u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(db_read(0, r, base + 0), 111u);
    EXPECT_EQ(db_read(1, r, base + 64), 222u);
  }
  // Status tables show COMMITTED in both partitions.
  std::vector<std::pair<uint64_t, uint64_t>> st;
  coord->scan_status(0, &st);
  coord->scan_status(1, &st);
  ASSERT_EQ(st.size(), 2u);
  for (auto& [id, state] : st) {
    EXPECT_EQ(state, TwoPhaseCoordinator::kCommitted);
  }
}

TEST_F(TwoPhaseFixture, SinglePartitionTxnWorks) {
  const uint64_t base = coord->app_data_base();
  bool committed = false;
  coord->execute({{0, base + 128, 5, bytes(7)}},
                 [&](bool ok) { committed = ok; });
  run();
  ASSERT_TRUE(committed);
  EXPECT_EQ(db_read(0, 2, base + 128), 7u);
}

// A cross-partition transaction that cannot take a lock on partition 1
// gives up after max_attempts and releases what it holds on partition 0:
// no replica keeps a lock word of it and neither partition logs anything.
TEST_F(TwoPhaseFixture, LockHeldElsewhereAbortsAndReleasesHeldLocks) {
  GroupLockManager::Config lc;
  lc.max_attempts = 3;
  std::vector<std::unique_ptr<GroupLockManager>> few;
  std::vector<TwoPhaseCoordinator::PartitionCtx> ctxs;
  for (Part& p : parts) {
    few.push_back(std::make_unique<GroupLockManager>(*p.group, layout, lc));
    ctxs.push_back({p.group.get(), p.wal.get(), few.back().get(), layout});
  }
  TwoPhaseCoordinator txn(cluster.loop(), std::move(ctxs));
  bool held = false;
  few[1]->wr_lock(2, /*owner=*/999, [&](bool ok) { held = ok; });
  run(sim::msec(10));
  ASSERT_TRUE(held);

  const uint64_t base = txn.app_data_base();
  bool done = false, committed = true;
  txn.execute({{0, base + 0, 1, bytes(111)}, {1, base + 64, 2, bytes(222)}},
              [&](bool ok) {
                done = true;
                committed = ok;
              });
  run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_EQ(txn.aborted(), 1u);
  EXPECT_EQ(few[0]->stats().wr_acquired, 1u);
  for (size_t r = 0; r < 3; ++r) {
    uint64_t mine = 1, other = 0;
    parts[0].group->replica_load(r, layout.lock_offset(1), &mine, 8);
    parts[1].group->replica_load(r, layout.lock_offset(2), &other, 8);
    EXPECT_EQ(mine, 0u) << "replica " << r;
    EXPECT_EQ(other, 999u) << "replica " << r;
  }
  for (Part& p : parts) {
    EXPECT_EQ(p.wal->stats().records_appended, 0u);
    EXPECT_EQ(p.wal->tail(), 0u);
  }
  std::vector<std::pair<uint64_t, uint64_t>> st;
  txn.scan_status(0, &st);
  txn.scan_status(1, &st);
  EXPECT_TRUE(st.empty());
}

TEST_F(TwoPhaseFixture, ManyConcurrentTxnsAllCommit) {
  const uint64_t base = coord->app_data_base();
  int done = 0;
  const int n = 24;
  for (int k = 0; k < n; ++k) {
    coord->execute(
        {{0, base + static_cast<uint64_t>(k) * 64, static_cast<uint32_t>(k % 8),
          bytes(static_cast<uint64_t>(k) + 1)},
         {1, base + static_cast<uint64_t>(k) * 64,
          static_cast<uint32_t>(k % 8), bytes(static_cast<uint64_t>(k) + 100)}},
        [&](bool ok) { done += ok ? 1 : 0; });
  }
  run(sim::seconds(10));
  EXPECT_EQ(done, n);
  for (int k = 0; k < n; k += 5) {
    EXPECT_EQ(db_read(0, 1, base + static_cast<uint64_t>(k) * 64),
              static_cast<uint64_t>(k) + 1);
    EXPECT_EQ(db_read(1, 1, base + static_cast<uint64_t>(k) * 64),
              static_cast<uint64_t>(k) + 100);
  }
}

// An 8 KB log holds four of the prepare records below. Twelve
// transactions prepare at once and fill it; each commit append then finds
// it full and must drain the prepare records itself, since run_execs, the
// usual drain, runs only after every commit append.
struct TwoPhaseSmallLogFixture : TwoPhaseFixture {
  TwoPhaseSmallLogFixture() { layout.log_size = 8 << 10; }
};

TEST_F(TwoPhaseSmallLogFixture, PrepareRecordsFillingTheLogDoNotStallCommits) {
  constexpr int kTxns = 12;
  const uint64_t base = coord->app_data_base();
  int committed = 0;
  for (int t = 0; t < kTxns; ++t) {
    const std::vector<uint8_t> data(1536, static_cast<uint8_t>(t + 1));
    const uint64_t off = base + static_cast<uint64_t>(t) * 2048;
    const auto lock = static_cast<uint32_t>(t);
    coord->execute({{0, off, lock, data}, {1, off, lock, data}},
                   [&](bool ok) { committed += ok ? 1 : 0; });
  }
  run(sim::seconds(2));
  EXPECT_EQ(committed, kTxns);
  for (int t = 0; t < kTxns; ++t) {
    uint64_t want = 0;
    std::memset(&want, t + 1, 8);
    for (int p = 0; p < kPartitions; ++p) {
      for (size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(db_read(p, r, base + static_cast<uint64_t>(t) * 2048), want)
            << "txn " << t << " partition " << p << " replica " << r;
      }
    }
  }
}

TEST_F(TwoPhaseFixture, PreparedOnlyTxnIsPresumedAborted) {
  // Simulate a coordinator crash after prepare: append the prepare record
  // manually (what prepare_all does) and never commit. The staged bytes
  // must never reach the application data area.
  const uint64_t base = coord->app_data_base();
  const uint64_t txn = 77;
  std::vector<ReplicatedWal::Entry> entries;
  std::vector<uint8_t> staging(24, 0);
  uint32_t count = 1;
  uint64_t target = base + 512;
  uint32_t len = 8;
  std::memcpy(staging.data(), &count, 4);
  std::memcpy(staging.data() + 8, &target, 8);
  std::memcpy(staging.data() + 16, &len, 4);
  // (payload omitted: 8 zero bytes)
  entries.push_back({coord->staging_offset(txn), staging});
  std::vector<uint8_t> status(16);
  std::memcpy(status.data(), &txn, 8);
  uint64_t prepared = TwoPhaseCoordinator::kPrepared;
  std::memcpy(status.data() + 8, &prepared, 8);
  entries.push_back({coord->status_offset(txn), status});
  ASSERT_TRUE(parts[0].wal->append(entries, [](uint64_t) {}));
  run();
  parts[0].wal->execute_and_advance([] {});
  run();

  // Not committed anywhere -> recovery does NOT roll it forward.
  EXPECT_EQ(coord->recover_partition(0, {}), 0u);
  std::vector<std::pair<uint64_t, uint64_t>> st;
  coord->scan_status(0, &st);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].second, TwoPhaseCoordinator::kPrepared);
}

TEST_F(TwoPhaseFixture, CommittedElsewhereRollsForwardFromStaging) {
  // Txn committed on partition 1 but only prepared on partition 0 (the
  // coordinator died between the two commit appends). Recovery must roll
  // partition 0 forward from its durable staging block.
  const uint64_t base = coord->app_data_base();
  const uint64_t txn = 33;
  const uint64_t value = 4242;

  // Partition 0: prepare only.
  {
    // Staging block: [count=1][pad] [db_offset][len=8][pad] [value].
    uint32_t count = 1;
    uint64_t target = base + 1024;
    uint32_t len = 8;
    std::vector<uint8_t> full(32, 0);
    std::memcpy(full.data(), &count, 4);
    std::memcpy(full.data() + 8, &target, 8);
    std::memcpy(full.data() + 16, &len, 4);
    std::memcpy(full.data() + 24, &value, 8);
    std::vector<ReplicatedWal::Entry> entries;
    entries.push_back({coord->staging_offset(txn), full});
    std::vector<uint8_t> status(16);
    std::memcpy(status.data(), &txn, 8);
    uint64_t prepared = TwoPhaseCoordinator::kPrepared;
    std::memcpy(status.data() + 8, &prepared, 8);
    entries.push_back({coord->status_offset(txn), status});
    ASSERT_TRUE(parts[0].wal->append(entries, [](uint64_t) {}));
    run();
    parts[0].wal->execute_and_advance([] {});
    run();
  }
  // Partition 1: committed status mark.
  {
    std::vector<uint8_t> status(16);
    std::memcpy(status.data(), &txn, 8);
    uint64_t comm = TwoPhaseCoordinator::kCommitted;
    std::memcpy(status.data() + 8, &comm, 8);
    std::vector<ReplicatedWal::Entry> entries = {
        {coord->status_offset(txn), status}};
    ASSERT_TRUE(parts[1].wal->append(entries, [](uint64_t) {}));
    run();
    parts[1].wal->execute_and_advance([] {});
    run();
  }

  // Scan: txn is committed somewhere.
  std::vector<std::pair<uint64_t, uint64_t>> st;
  coord->scan_status(1, &st);
  ASSERT_EQ(st.size(), 1u);
  ASSERT_EQ(st[0].second, TwoPhaseCoordinator::kCommitted);

  EXPECT_EQ(coord->recover_partition(0, {txn}), 1u);
  run();
  // Rolled forward on every replica of partition 0.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(db_read(0, r, base + 1024), value) << "replica " << r;
  }
  st.clear();
  coord->scan_status(0, &st);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].second, TwoPhaseCoordinator::kCommitted);
  // Idempotent.
  EXPECT_EQ(coord->recover_partition(0, {txn}), 0u);
}

TEST_F(TwoPhaseFixture, CommittedDataSurvivesFullClusterCrash) {
  const uint64_t base = coord->app_data_base();
  bool committed = false;
  coord->execute({{0, base, 0, bytes(1)}, {1, base, 0, bytes(2)}},
                 [&](bool ok) { committed = ok; });
  run();
  ASSERT_TRUE(committed);
  for (size_t r = 0; r < 3; ++r) {
    parts[0].group->replica_server(r).nvm().crash();
  }
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(db_read(0, r, base), 1u);
    EXPECT_EQ(db_read(1, r, base), 2u);
  }
}

// The cross-partition variant of TxnUnlockOrderTest: two-partition
// transactions on distinct locks, three in flight at a time, so one
// transaction's execute applies another's prepare and commit records.
// Lockstep rounds would not do here: every transaction releases its
// partition-0 lock first, and in a round its partition-0 records were
// claimed well before that. A sliding window keeps transactions at
// different steps. No partition's lock word may clear on a replica
// before that replica holds the transaction's final write.
class TwoPhaseUnlockOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(TwoPhaseUnlockOrderTest, LocksReleaseOnlyAfterRecordsAreApplied) {
  constexpr uint32_t kTxns = 96;
  constexpr uint64_t kStride = 64;
  constexpr size_t kParts = 2;
  Cluster cluster({.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}},
                   .network = {.loss_probability = GetParam()}});
  RegionLayout layout;
  layout.region_size = 2u << 20;
  layout.log_size = 256 << 10;
  layout.num_locks = kTxns;
  const std::vector<Server*> reps = chain_replicas(cluster);
  std::vector<std::unique_ptr<HyperLoopGroup>> groups;
  std::vector<std::unique_ptr<ReplicatedWal>> wals;
  std::vector<std::unique_ptr<GroupLockManager>> locks;
  std::vector<TwoPhaseCoordinator::PartitionCtx> ctxs;
  for (size_t p = 0; p < kParts; ++p) {
    groups.push_back(make_chain(cluster, {.region_size = layout.region_size,
                                          .ring_slots = 128,
                                          .max_inflight = 32}));
    wals.push_back(std::make_unique<ReplicatedWal>(*groups[p], layout));
    locks.push_back(std::make_unique<GroupLockManager>(*groups[p], layout));
    ctxs.push_back({groups[p].get(), wals[p].get(), locks[p].get(), layout});
  }
  TwoPhaseCoordinator coord(cluster.loop(), std::move(ctxs));
  const uint64_t base = coord.app_data_base();

  std::vector<UnlockOrderProbe> probes;
  for (size_t p = 0; p < kParts; ++p) {
    probes.emplace_back(kTxns, base, kStride);
    for (size_t r = 0; r < reps.size(); ++r) {
      probes[p].watch(groups[p]->replica_server(r).mem(),
                      groups[p]->replica_region_base(r), layout);
    }
  }
  sim::Rng rng(0x2FC0);
  std::vector<uint64_t> values(kTxns * kParts);
  for (uint64_t& v : values) v = rng.next_u64() | 1;  // never the zero slot
  auto value = [&](size_t p, uint32_t k) { return values[k * kParts + p]; };
  auto bytes = [](uint64_t v) {
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    return b;
  };

  // Three in flight at all times: each commit starts the next one.
  uint32_t committed = 0, issued = 0;
  std::function<void()> issue = [&] {
    const uint32_t k = issued++;
    std::vector<TwoPhaseCoordinator::Write> writes;
    for (size_t p = 0; p < kParts; ++p) {
      probes[p].expect(k, value(p, k));
      writes.push_back({p, base + k * kStride, k, bytes(value(p, k))});
    }
    coord.execute(std::move(writes), [&](bool ok) {
      committed += ok ? 1 : 0;
      if (issued < kTxns) issue();
    });
  };
  for (int i = 0; i < 3; ++i) issue();
  cluster.loop().run_until(cluster.loop().now() + sim::seconds(2));
  ASSERT_EQ(committed, kTxns);

  for (size_t p = 0; p < kParts; ++p) {
    EXPECT_EQ(probes[p].releases(), uint64_t{kTxns} * reps.size());
    EXPECT_EQ(probes[p].early(), 0u)
        << "partition " << p
        << ": lock words cleared on a replica before the record was applied";
    // Two records (prepare, commit) per transaction per partition.
    EXPECT_LT(wals[p]->stats().exec_batches, 2 * uint64_t{kTxns})
        << "no execute batch applied another transaction's record";
    for (size_t r = 0; r < reps.size(); ++r) {
      for (uint32_t k = 0; k < kTxns; ++k) {
        uint64_t v = 0;
        groups[p]->replica_load(r, layout.db_base() + base + k * kStride, &v,
                                8);
        EXPECT_EQ(v, value(p, k)) << "partition " << p << " replica " << r;
      }
    }
  }
  if (GetParam() > 0) {
    EXPECT_GT(cluster.net().packets_dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Loss, TwoPhaseUnlockOrderTest,
                         ::testing::Values(0.0, 0.03),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param > 0 ? std::string("Lossy3pct")
                                                 : std::string("Lossless");
                         });

}  // namespace
}  // namespace hyperloop::core
