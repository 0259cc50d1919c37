#include "core/txn.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "chain_setup.h"
#include "sim/rng.h"
#include "unlock_order_probe.h"

namespace hyperloop::core {
namespace {

struct TxnFixture : ::testing::Test {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout = [] {
    RegionLayout l;
    l.region_size = 1 << 20;
    l.log_size = 64 << 10;
    l.num_locks = 32;
    return l;
  }();
  std::unique_ptr<HyperLoopGroup> group = make_chain(
      cluster, {.region_size = layout.region_size,
                .ring_slots = 128,
                .max_inflight = 32});
  ReplicatedWal wal{*group, layout};
  GroupLockManager locks{*group, layout};
  TransactionManager txns{*group, wal, locks, cluster.loop()};

  void run(sim::Duration d = sim::msec(500)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  std::vector<uint8_t> bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }
  std::string db_read(size_t replica, uint64_t off, size_t len) {
    std::string out(len, '\0');
    group->replica_load(replica, layout.db_base() + off, out.data(),
                        static_cast<uint32_t>(len));
    return out;
  }
};

TEST_F(TxnFixture, CommitAppliesAtomically) {
  bool committed = false;
  txns.execute({{0, bytes("X=1;")}, {128, bytes("Y=2;")}}, {0, 1},
               [&](bool ok) { committed = ok; });
  run();
  ASSERT_TRUE(committed);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db_read(i, 0, 4), "X=1;");
    EXPECT_EQ(db_read(i, 128, 4), "Y=2;");
  }
  EXPECT_EQ(txns.stats().committed, 1u);
  // Locks released everywhere.
  uint64_t w = 0;
  group->replica_load(0, layout.lock_offset(0), &w, 8);
  EXPECT_EQ(w, 0u);
}

// A transaction that cannot take one of its locks gives up after
// max_attempts and rolls back the locks it holds: no replica keeps a lock
// word of it and nothing reaches the log.
TEST_F(TxnFixture, LockHeldElsewhereAbortsAndReleasesHeldLocks) {
  GroupLockManager::Config lc;
  lc.max_attempts = 3;
  GroupLockManager few{*group, layout, lc};
  TransactionManager txn{*group, wal, few, cluster.loop()};
  bool held = false;
  few.wr_lock(5, /*owner=*/999, [&](bool ok) { held = ok; });
  run(sim::msec(10));
  ASSERT_TRUE(held);

  bool done = false, committed = true;
  txn.execute({{0, bytes("nope")}}, {2, 5}, [&](bool ok) {
    done = true;
    committed = ok;
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_EQ(txn.stats().aborted, 1u);
  EXPECT_EQ(few.stats().wr_acquired, 2u);  // the holder's lock and lock 2
  for (size_t i = 0; i < 3; ++i) {
    uint64_t mine = 1, other = 0;
    group->replica_load(i, layout.lock_offset(2), &mine, 8);
    group->replica_load(i, layout.lock_offset(5), &other, 8);
    EXPECT_EQ(mine, 0u) << "replica " << i;
    EXPECT_EQ(other, 999u) << "replica " << i;
    EXPECT_EQ(db_read(i, 0, 4), std::string(4, '\0')) << "replica " << i;
  }
  EXPECT_EQ(wal.stats().records_appended, 0u);
  EXPECT_EQ(wal.tail(), 0u);

  // Same, with the held lock the transaction's first: it gives up holding
  // nothing, so it reports without releasing anything and never tries
  // its second lock.
  TransactionManager first{*group, wal, few, cluster.loop()};
  done = false;
  committed = true;
  first.execute({{0, bytes("nope")}}, {5, 7}, [&](bool ok) {
    done = true;
    committed = ok;
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_EQ(first.stats().aborted, 1u);
  for (size_t i = 0; i < 3; ++i) {
    uint64_t untried = 1;
    group->replica_load(i, layout.lock_offset(7), &untried, 8);
    EXPECT_EQ(untried, 0u) << "replica " << i;
  }
  EXPECT_EQ(wal.stats().records_appended, 0u);
}

TEST_F(TxnFixture, CommittedDataSurvivesCrash) {
  bool committed = false;
  txns.execute({{256, bytes("durable-txn")}}, {2},
               [&](bool ok) { committed = ok; });
  run();
  ASSERT_TRUE(committed);
  for (size_t i = 0; i < 3; ++i) {
    group->replica_server(i).nvm().crash();
    EXPECT_EQ(db_read(i, 256, 11), "durable-txn");
  }
}

TEST_F(TxnFixture, ConflictingTxnsSerialize) {
  // Two transactions on the same lock both increment a counter.
  uint64_t init = 0;
  group->client_store(layout.db_base() + 512, &init, 8);
  int done = 0;
  auto increment = [&] {
    uint64_t cur = 0;
    group->client_load(layout.db_base() + 512, &cur, 8);
    ++cur;
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &cur, 8);
    txns.execute({{512, b}}, {5}, [&](bool ok) {
      ASSERT_TRUE(ok);
      ++done;
    });
  };
  // Chain them so each reads the prior value (client-side serialization),
  // while locks guarantee replica-side isolation.
  txns.execute({{512, bytes("\1\0\0\0\0\0\0\0")}}, {5}, [&](bool ok) {
    ASSERT_TRUE(ok);
    ++done;
    increment();
  });
  run();
  EXPECT_EQ(done, 2);
  uint64_t v = 0;
  group->replica_load(1, layout.db_base() + 512, &v, 8);
  EXPECT_EQ(v, 2u);
}

TEST_F(TxnFixture, ManyConcurrentDisjointTxns) {
  const int n = 64;
  int committed = 0;
  for (int k = 0; k < n; ++k) {
    uint64_t v = static_cast<uint64_t>(k) + 7;
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    txns.execute({{static_cast<uint64_t>(k) * 64, b}},
                 {static_cast<uint32_t>(k % 32)},
                 [&](bool ok) { committed += ok ? 1 : 0; });
  }
  run(sim::seconds(5));
  EXPECT_EQ(committed, n);
  for (int k = 0; k < n; k += 7) {
    uint64_t v = 0;
    group->replica_load(2, layout.db_base() + static_cast<uint64_t>(k) * 64,
                        &v, 8);
    EXPECT_EQ(v, static_cast<uint64_t>(k) + 7);
  }
}

TEST_F(TxnFixture, LogBackpressureRetriesAndSucceeds) {
  // Transactions big enough that only a few fit in the log at once.
  const int n = 20;
  int committed = 0;
  std::vector<uint8_t> big(6000, 0xCD);
  for (int k = 0; k < n; ++k) {
    txns.execute({{static_cast<uint64_t>(k % 4) * 8192, big}},
                 {static_cast<uint32_t>(k % 4)},
                 [&](bool ok) { committed += ok ? 1 : 0; });
  }
  run(sim::seconds(10));
  EXPECT_EQ(committed, n);
}

// An 8 KB log holds three of these transactions' records, so most
// appends find it full and retry until earlier transactions have applied
// and truncated theirs.
TEST(TxnLogFullTest, FullLogAppendsRetryUntilEveryTransactionCommits) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 8 << 10;
  layout.num_locks = 32;
  auto group = make_chain(cluster, {.region_size = layout.region_size,
                                    .ring_slots = 128,
                                    .max_inflight = 32});
  ReplicatedWal wal{*group, layout};
  GroupLockManager locks{*group, layout};
  TransactionManager txns{*group, wal, locks, cluster.loop()};
  constexpr uint32_t kTxns = 24;
  uint32_t committed = 0;
  for (uint32_t k = 0; k < kTxns; ++k) {
    txns.execute({{uint64_t{k} * 4096,
                   std::vector<uint8_t>(2048, static_cast<uint8_t>(k + 1))}},
                 {k}, [&](bool ok) { committed += ok ? 1 : 0; });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::seconds(2));
  EXPECT_EQ(committed, kTxns);
  EXPECT_GT(wal.stats().append_failures, 0u) << "the log never filled";
  for (size_t r = 0; r < 3; ++r) {
    for (uint32_t k = 0; k < kTxns; ++k) {
      uint64_t word = ~uint64_t{0};
      group->replica_load(r, layout.lock_offset(k), &word, 8);
      EXPECT_EQ(word, 0u) << "lock " << k << " replica " << r;
      uint8_t b = 0;
      group->replica_load(r, layout.db_base() + uint64_t{k} * 4096, &b, 1);
      EXPECT_EQ(b, k + 1) << "txn " << k << " replica " << r;
    }
  }
}

TEST_F(TxnFixture, CrashBeforeExecuteIsRecoveredByReplay) {
  // Append a record manually (commit), crash a replica before execution,
  // replay must reconstruct the DB state.
  bool appended = false;
  ASSERT_TRUE(
      wal.append({{64, bytes("replayed")}}, [&](uint64_t) { appended = true; }));
  run();
  ASSERT_TRUE(appended);

  group->replica_server(2).nvm().crash();
  const rdma::Addr base = group->replica_region_base(2);
  Server& r = group->replica_server(2);
  EXPECT_NE(db_read(2, 64, 8), "replayed");  // not executed yet
  ReplicatedWal::replay(
      layout,
      [&](uint64_t off, void* dst, uint32_t len) {
        r.mem().read(base + off, dst, len);
      },
      [&](uint64_t off, const void* src, uint32_t len) {
        r.mem().write(base + off, src, len);
      });
  EXPECT_EQ(db_read(2, 64, 8), "replayed");
}

// A transaction reports at its commit point, before its apply has acked
// and perhaps before it has even left the credit window. The client's
// copy must hold the record by then: chained read-increment transactions
// read their cell from it right at `done`. They take no locks (each
// cell's chain orders itself), so all cells commit in shared batches,
// and with one credit per primitive most applies park behind the first.
TEST(TxnClientCopyTest, ClientCopyHoldsTheRecordAtDone) {
  constexpr uint32_t kCells = 8;
  constexpr uint64_t kRounds = 8;
  constexpr uint64_t kStride = 64;
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  std::unique_ptr<HyperLoopGroup> group = make_chain(
      cluster,
      {.region_size = layout.region_size, .ring_slots = 4, .max_inflight = 1});
  ReplicatedWal wal(*group, layout);
  GroupLockManager locks(*group, layout);
  TransactionManager txns(*group, wal, locks, cluster.loop());

  auto cell = [&](uint32_t c) {
    uint64_t v = 0;
    group->client_load(layout.db_base() + c * kStride, &v, 8);
    return v;
  };
  std::vector<uint32_t> stale;  // cells whose copy lagged at some `done`
  uint32_t committed = 0;
  std::function<void(uint32_t, uint64_t)> increment = [&](uint32_t c,
                                                         uint64_t round) {
    if (round == kRounds) return;
    const uint64_t next = cell(c) + 1;
    std::vector<uint8_t> b(8);
    std::memcpy(b.data(), &next, 8);
    txns.execute({{c * kStride, std::move(b)}}, {},
                 [&, c, round, next](bool ok) {
                   ASSERT_TRUE(ok);
                   ++committed;
                   if (cell(c) != next) stale.push_back(c);
                   increment(c, round + 1);
                 });
  };
  for (uint32_t c = 0; c < kCells; ++c) increment(c, 0);
  cluster.loop().run_until(cluster.loop().now() + sim::msec(100));

  ASSERT_EQ(committed, kCells * kRounds);
  EXPECT_TRUE(stale.empty()) << stale.size()
                             << " commits left the client copy stale, "
                                "first at cell "
                             << stale.front();
  for (size_t r = 0; r < group->group_size(); ++r) {
    for (uint32_t c = 0; c < kCells; ++c) {
      uint64_t v = 0;
      group->replica_load(r, layout.db_base() + c * kStride, &v, 8);
      EXPECT_EQ(v, kRounds) << "replica " << r << " cell " << c;
    }
  }
}

// On every replica, a lock clears only after the record has been applied
// there, including when another transaction's execute batch applied it.
// Rounds of four transactions on distinct locks: the first two records
// go out in commit batches of their own (the second behind the first,
// which carries one record), the third and fourth share the next batch,
// and the third one's execute claims both. Runs lossless and over a 3%
// lossy fabric, where retransmits stretch the window between an apply and
// an unlock that raced it.
class TxnUnlockOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(TxnUnlockOrderTest, LocksReleaseOnlyAfterRecordIsApplied) {
  constexpr uint32_t kTxns = 48;
  constexpr uint32_t kPerRound = 4;
  constexpr uint64_t kStride = 64;
  Cluster cluster({.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}},
                   .network = {.loss_probability = GetParam()}});
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  layout.num_locks = kTxns;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 128,
                        .max_inflight = 32});
  ReplicatedWal wal(group, layout);
  GroupLockManager locks(group, layout);
  TransactionManager txns(group, wal, locks, cluster.loop());

  UnlockOrderProbe probe(kTxns, /*slot_base=*/0, kStride);
  for (size_t r = 0; r < group.group_size(); ++r) {
    probe.watch(group.replica_server(r).mem(), group.replica_region_base(r),
                layout);
  }
  sim::Rng rng(0x7A11);
  std::vector<uint64_t> values(kTxns);
  for (uint64_t& v : values) v = rng.next_u64() | 1;  // never the zero slot

  uint32_t committed = 0;
  for (uint32_t round = 0; round < kTxns; round += kPerRound) {
    for (uint32_t k = round; k < round + kPerRound; ++k) {
      probe.expect(k, values[k]);
      std::vector<uint8_t> b(8);
      std::memcpy(b.data(), &values[k], 8);
      txns.execute({{k * kStride, std::move(b)}}, {k},
                   [&](bool ok) { committed += ok ? 1 : 0; });
    }
    cluster.loop().run_until(cluster.loop().now() + sim::msec(100));
    ASSERT_EQ(committed, round + kPerRound) << "round " << round / kPerRound;
  }

  EXPECT_EQ(probe.releases(), uint64_t{kTxns} * group.group_size());
  EXPECT_EQ(probe.early(), 0u)
      << "lock words cleared on a replica before the record was applied";
  EXPECT_GT(wal.stats().records_appended, wal.stats().gwritev_batches)
      << "no two records shared a commit batch";
  EXPECT_LT(wal.stats().exec_batches, uint64_t{kTxns})
      << "no execute batch applied another transaction's record";
  if (GetParam() > 0) {
    EXPECT_GT(cluster.net().packets_dropped(), 0u);
  }
  for (size_t r = 0; r < group.group_size(); ++r) {
    for (uint32_t k = 0; k < kTxns; ++k) {
      uint64_t v = 0;
      group.replica_load(r, layout.db_base() + k * kStride, &v, 8);
      EXPECT_EQ(v, values[k]) << "replica " << r << " txn " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Loss, TxnUnlockOrderTest,
                         ::testing::Values(0.0, 0.03),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param > 0 ? std::string("Lossy3pct")
                                                 : std::string("Lossless");
                         });

}  // namespace
}  // namespace hyperloop::core
