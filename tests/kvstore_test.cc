#include "apps/kvstore/kvstore.h"

#include <gtest/gtest.h>

#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "chain_setup.h"
#include "core/sharded_group.h"
#include "core/sharded_reader.h"

namespace hyperloop::apps {
namespace {

using core::Cluster;
using core::HyperLoopGroup;
using core::RegionLayout;
using core::Server;

struct KvFixture : ::testing::Test {
  explicit KvFixture(uint64_t log_size = 512 << 10)
      : layout([log_size] {
          RegionLayout l;
          l.region_size = 8u << 20;
          l.log_size = log_size;
          l.num_locks = 64;
          return l;
        }()) {}

  Cluster cluster{{.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}, .nvm_size = 32u << 20}}};
  RegionLayout layout;
  std::unique_ptr<HyperLoopGroup> group = make_chain(
      cluster, {.region_size = layout.region_size,
                .ring_slots = 128,
                .max_inflight = 32});
  KvStore kv{*group, cluster.server(3), chain_replicas(cluster),
             {.layout = layout, .value_size = 256}};

  void run(sim::Duration d = sim::msec(500)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(KvFixture, PutThenGet) {
  bool put = false;
  kv.insert(5, WorkloadGenerator::value_for(5, 256), [&](bool ok) { put = ok; });
  run();
  ASSERT_TRUE(put);
  bool got = false;
  std::vector<uint8_t> value;
  kv.read(5, [&](bool ok, std::vector<uint8_t> v) {
    got = ok;
    value = std::move(v);
  });
  run();
  ASSERT_TRUE(got);
  EXPECT_EQ(value, WorkloadGenerator::value_for(5, 256));
}

TEST_F(KvFixture, ReadMissingKeyFails) {
  bool ok = true;
  kv.read(9999, [&](bool o, std::vector<uint8_t>) { ok = o; });
  run(sim::msec(10));
  EXPECT_FALSE(ok);
}

TEST_F(KvFixture, UpdateOverwrites) {
  bool done = false;
  kv.insert(7, WorkloadGenerator::value_for(7, 256), [&](bool) {});
  kv.update(7, WorkloadGenerator::value_for(8, 256), [&](bool ok) { done = ok; });
  run();
  ASSERT_TRUE(done);
  std::vector<uint8_t> value;
  kv.read(7, [&](bool, std::vector<uint8_t> v) { value = std::move(v); });
  run();
  EXPECT_EQ(value, WorkloadGenerator::value_for(8, 256));
  // A read-modify-write replaces an existing key and fails on a missing
  // one without creating it.
  bool rmw = false, rmw_missing = true, found_missing = true;
  kv.read_modify_write(7, WorkloadGenerator::value_for(9, 256),
                       [&](bool ok) { rmw = ok; });
  kv.read_modify_write(777, WorkloadGenerator::value_for(9, 256),
                       [&](bool ok) { rmw_missing = ok; });
  run();
  kv.read(7, [&](bool, std::vector<uint8_t> v) { value = std::move(v); });
  kv.read(777, [&](bool ok, std::vector<uint8_t>) { found_missing = ok; });
  run();
  EXPECT_TRUE(rmw);
  EXPECT_FALSE(rmw_missing);
  EXPECT_EQ(value, WorkloadGenerator::value_for(9, 256));
  EXPECT_FALSE(found_missing);
}

TEST_F(KvFixture, ReplicasSyncEventually) {
  bool put = false;
  kv.insert(3, WorkloadGenerator::value_for(3, 256), [&](bool ok) { put = ok; });
  run(sim::msec(2));
  ASSERT_TRUE(put);
  // Give the 1ms sync period a few rounds.
  run(sim::msec(10));
  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> v;
    ASSERT_TRUE(kv.replica_read(i, 3, &v)) << "replica " << i;
    EXPECT_EQ(v, WorkloadGenerator::value_for(3, 256));
  }
}

TEST_F(KvFixture, CheckpointTruncatesLog) {
  // Push enough writes to cross the checkpoint threshold repeatedly.
  int done = 0;
  const int n = 2000;
  for (int k = 0; k < n; ++k) {
    kv.update(static_cast<uint64_t>(k % 100),
              WorkloadGenerator::value_for(static_cast<uint64_t>(k), 256),
              [&](bool ok) { done += ok ? 1 : 0; });
  }
  run(sim::seconds(20));
  EXPECT_EQ(done, n);
  EXPECT_GT(kv.checkpoints(), 0u);
  EXPECT_LT(kv.wal().used_bytes(), layout.log_size);
}

TEST_F(KvFixture, RecoveryAfterCrashRestoresCommittedData) {
  int done = 0;
  for (uint64_t k = 0; k < 50; ++k) {
    kv.insert(k, WorkloadGenerator::value_for(k * 3, 256),
              [&](bool ok) { done += ok ? 1 : 0; });
  }
  run(sim::seconds(2));
  ASSERT_EQ(done, 50);

  // Crash the coordinator's NVM (committed = durable by construction),
  // then rebuild the memtable from the region image.
  cluster.server(3).nvm().crash();
  kv.recover();
  for (uint64_t k = 0; k < 50; ++k) {
    std::vector<uint8_t> v;
    bool ok = false;
    kv.read(k, [&](bool o, std::vector<uint8_t> val) {
      ok = o;
      v = std::move(val);
    });
    run(sim::msec(5));
    ASSERT_TRUE(ok) << "key " << k;
    EXPECT_EQ(v, WorkloadGenerator::value_for(k * 3, 256)) << "key " << k;
  }
}

TEST_F(KvFixture, BulkLoadSeedsStoreAndReplicas) {
  kv.bulk_load(500);
  run(sim::msec(100));
  bool ok = false;
  std::vector<uint8_t> v;
  kv.read(499, [&](bool o, std::vector<uint8_t> val) {
    ok = o;
    v = std::move(val);
  });
  run(sim::msec(5));
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, WorkloadGenerator::value_for(499, 256));
  EXPECT_EQ(kv.replica_record_count(0), 500u);
  // Replica region bytes match too.
  uint64_t key = 0;
  group->replica_load(2, layout.db_base() + 499 * (16 + 256), &key, 8);
  EXPECT_EQ(key, 499u);
  // Scans walk the memtable from the first key at or after the start.
  bool hit = false, miss = true;
  kv.scan(490, 20, [&](bool o) { hit = o; });
  kv.scan(5000, 10, [&](bool o) { miss = o; });
  run(sim::msec(5));
  EXPECT_TRUE(hit);
  EXPECT_FALSE(miss);
}

TEST_F(KvFixture, YcsbWorkloadARunsClean) {
  kv.bulk_load(1000);
  run(sim::msec(100));
  WorkloadGenerator gen(
      [] {
        WorkloadSpec s = WorkloadSpec::A();
        s.value_size = 256;
        return s;
      }(),
      1000, cluster.fork_rng());
  YcsbDriver::Config dc;
  dc.threads = 4;
  dc.total_ops = 2000;
  YcsbDriver driver(cluster.loop(), kv, gen, dc);
  bool complete = false;
  driver.start([&] { complete = true; });
  run(sim::seconds(30));
  ASSERT_TRUE(complete);
  EXPECT_EQ(driver.completed(), 2000u);
  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_GT(driver.latency(OpType::kUpdate).count(), 0u);
  EXPECT_GT(driver.latency(OpType::kRead).count(), 0u);
}

// The client reuses log space as soon as its records are applied, so a
// 4 KB log laps the replicas' 1 ms sync many times per round. Each sync
// that finds its place in the log reused must reload from the DB area:
// after the rounds every replica holds the client's last value of every
// key.
struct KvReplicaSync : KvFixture {
  KvReplicaSync() : KvFixture(4 << 10) {}
};

TEST_F(KvReplicaSync, LappedSyncCatchesUpWithEveryKey) {
  constexpr uint64_t kKeys = 64;
  constexpr uint64_t kRounds = 8;
  uint64_t acked = 0;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      kv.update(k, WorkloadGenerator::value_for(k + round * kKeys, 256),
                [&](bool ok) { acked += ok ? 1 : 0; });
    }
    run(sim::msec(20));
    ASSERT_EQ(acked, round * kKeys);
  }
  EXPECT_GT(kv.checkpoints(), kRounds);
  run(sim::msec(20));
  for (size_t i = 0; i < 3; ++i) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      std::vector<uint8_t> v;
      ASSERT_TRUE(kv.replica_read(i, k, &v)) << "replica " << i << " key " << k;
      EXPECT_EQ(v, WorkloadGenerator::value_for(k + kRounds * kKeys, 256))
          << "replica " << i << " key " << k;
    }
  }
}

// A KvStore striped over four chains with a ShardedReader: a scan reads
// the replicated DB image as one scatter batch, one extent per shard.
TEST(KvShardedScan, ScanReadsOneExtentPerShard) {
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kSlice = 1u << 20;
  Cluster cluster({.num_servers = 4, .server = {.num_nics = kShards}});
  std::vector<std::unique_ptr<core::ReplicationGroup>> chains;
  std::vector<std::unique_ptr<core::RemoteReader>> readers;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto chain = make_chain(cluster, {.region_size = kSlice * kShards,
                                      .ring_slots = 64,
                                      .max_inflight = 16,
                                      .nic_index = s});
    readers.push_back(std::make_unique<core::RemoteReader>(
        cluster.server(3), replica_targets(*chain),
        core::RemoteReader::Options{.nic_index = s}));
    chains.push_back(std::move(chain));
  }
  const auto router = core::ShardRouter::range(kShards, kSlice);
  core::ShardedGroup group(std::move(chains), router);
  core::ShardedReader reader(std::move(readers), router);
  KvStore kv(group, cluster.server(3), chain_replicas(cluster),
             {.layout = {.region_size = kSlice, .num_locks = 16,
                         .log_size = 64 << 10},
              .shards = kShards,
              .value_size = 64,
              .replicas_sync = false});
  kv.set_sharded_reader(&reader);
  kv.bulk_load(64);
  cluster.loop().run_until(sim::msec(50));

  bool hit = false, empty = true, past_end = true;
  kv.scan(10, 20, [&](bool ok) { hit = ok; });
  // Slots that were never written read back empty.
  kv.scan(1000, 8, [&](bool ok) { empty = ok; });
  // A scan past the end of every shard's DB area reads nothing.
  kv.scan(uint64_t{1} << 40, 8, [&](bool ok) { past_end = ok; });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  EXPECT_TRUE(hit);
  EXPECT_FALSE(empty);
  EXPECT_FALSE(past_end);
  EXPECT_EQ(reader.stats().reads_issued, 2u);
  EXPECT_EQ(reader.stats().scatter_reads, 2u);
  EXPECT_EQ(reader.stats().read_bytes, (20u + 8u) * (16 + 64));
}

}  // namespace
}  // namespace hyperloop::apps
