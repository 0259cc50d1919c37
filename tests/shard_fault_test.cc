// Shard-fault isolation (DESIGN.md "Sharded datapath", failure isolation).
//
// Two replication chains behind one ShardedGroup, a sharded KvStore on
// top, and one ChainManager per chain, each heartbeating on its own port.
// Killing a replica of shard 0's chain mid-workload must:
//   - fire only shard 0's detector and pause only shard 0's writes,
//   - leave shard 1's commit latency unaffected while shard 0 is down,
//   - defer (not lose) shard 0's puts, which complete after the replica
//     revives via catch-up, and
//   - resume shard 0 with its chain epoch bumped and counts intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/kvstore/kvstore.h"
#include "core/chain_manager.h"
#include "chain_setup.h"
#include "core/sharded_group.h"

namespace hyperloop::core {
namespace {

constexpr uint32_t kShards = 2;
constexpr uint64_t kSlice = 256 << 10;

struct ShardFaultFixture : ::testing::Test {
  // 0..2 replicas, 3 client
  Cluster cluster{{.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}, .num_nics = kShards}}};

  std::vector<HyperLoopGroup*> chains;  // borrowed views into sharded
  std::unique_ptr<ShardedGroup> sharded;
  std::unique_ptr<apps::KvStore> kv;
  std::vector<std::unique_ptr<ChainManager>> mgrs;

  void SetUp() override {
    const std::vector<Server*> reps = chain_replicas(cluster);
    std::vector<std::unique_ptr<ReplicationGroup>> kids;
    for (uint32_t s = 0; s < kShards; ++s) {
      auto g = make_chain(cluster, {.region_size = kSlice * kShards,
                                    .ring_slots = 256,
                                    .max_inflight = 32,
                                    .nic_index = s});
      chains.push_back(g.get());
      kids.push_back(std::move(g));
    }
    sharded = std::make_unique<ShardedGroup>(
        std::move(kids), ShardRouter::range(kShards, kSlice));

    apps::KvStore::Config kc;
    kc.layout.region_size = kSlice;
    kc.layout.log_size = 64 << 10;
    kc.layout.num_locks = 16;
    kc.shards = kShards;
    kc.value_size = 64;
    kc.replicas_sync = false;
    kv = std::make_unique<apps::KvStore>(*sharded, cluster.server(3), reps,
                                         kc);

    for (uint32_t s = 0; s < kShards; ++s) {
      std::vector<ChainManager::ReplicaInfo> info;
      for (size_t i = 0; i < reps.size(); ++i) {
        info.push_back(ChainManager::ReplicaInfo{
            &chains[s]->replica_server(i),
            chains[s]->replica_region_base(i)});
      }
      ChainManager::Config mc;
      mc.port_base = static_cast<uint16_t>(mc.port_base + s);
      mgrs.push_back(std::make_unique<ChainManager>(
          cluster.server(3), std::move(info), kSlice * kShards, mc));
      // Chain supervision gates exactly one shard's write path.
      mgrs[s]->set_on_failure(
          [this, s](size_t) { kv->set_shard_paused(s, true); });
      mgrs[s]->set_on_recovered(
          [this, s](size_t) { kv->set_shard_paused(s, false); });
      mgrs[s]->start();
    }
  }

  void run(sim::Duration d) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(ShardFaultFixture, OneShardsFailureLeavesTheOtherUnaffected) {
  // Open-loop writer: one put per 50us, alternating shards (key % 2).
  struct PerShard {
    uint64_t issued = 0;
    uint64_t completed = 0;
    sim::Duration max_latency = 0;
    bool measuring = false;  ///< record latencies only while set
  };
  std::vector<PerShard> stat(kShards);
  uint64_t next_key = 0;
  auto put_one = [&] {
    const uint64_t key = next_key++ % 64;
    const uint32_t s = kv->shard_of(key);
    ++stat[s].issued;
    const sim::Time t0 = cluster.loop().now();
    std::vector<uint8_t> val(64, static_cast<uint8_t>(key));
    kv->insert(key, std::move(val), [&, s, t0](bool ok) {
      ASSERT_TRUE(ok);
      ++stat[s].completed;
      if (stat[s].measuring) {
        stat[s].max_latency =
            std::max(stat[s].max_latency, cluster.loop().now() - t0);
      }
    });
  };
  bool writing = true;
  std::function<void()> tick = [&] {
    if (!writing) return;
    put_one();
    cluster.loop().schedule_after(sim::usec(50), [&] { tick(); });
  };
  tick();

  // Phase 1: healthy. Both shards commit.
  run(sim::msec(10));
  EXPECT_GT(stat[0].completed, 50u);
  EXPECT_GT(stat[1].completed, 50u);

  // Phase 2: kill a replica on shard 0's chain; wait for detection.
  stat[1].measuring = true;
  mgrs[0]->kill_replica(1);
  run(sim::msec(10));  // > missed_threshold * heartbeat_interval
  EXPECT_EQ(mgrs[0]->failures_detected(), 1u);
  EXPECT_EQ(mgrs[1]->failures_detected(), 0u);
  EXPECT_TRUE(mgrs[0]->writes_paused());
  EXPECT_FALSE(mgrs[1]->writes_paused());
  EXPECT_TRUE(kv->shard_paused(0));
  EXPECT_FALSE(kv->shard_paused(1));

  // Phase 3: shard 0 paused — its new puts defer; shard 1 sails on.
  const uint64_t s0_before = stat[0].completed;
  const uint64_t s1_before = stat[1].completed;
  run(sim::msec(10));
  EXPECT_EQ(stat[0].completed, s0_before) << "paused shard must defer";
  EXPECT_GT(stat[1].completed, s1_before + 50);
  // The healthy shard never saw the outage: its commit latency during the
  // fault stays in the microsecond regime of its own private chain.
  EXPECT_LT(stat[1].max_latency, sim::msec(1));

  // Phase 4: revive; catch-up copies the image, epoch bumps, shard 0
  // resumes and the deferred puts drain.
  mgrs[0]->revive_replica(1);
  run(sim::msec(20));
  EXPECT_EQ(mgrs[0]->recoveries(), 1u);
  EXPECT_EQ(mgrs[1]->recoveries(), 0u);
  EXPECT_FALSE(mgrs[0]->writes_paused());
  EXPECT_FALSE(kv->shard_paused(0));
  EXPECT_EQ(mgrs[0]->epoch(), 2u);
  EXPECT_EQ(mgrs[1]->epoch(), 1u);

  writing = false;
  run(sim::msec(30));  // quiesce: deferred retries complete
  EXPECT_EQ(stat[0].completed, stat[0].issued);
  EXPECT_EQ(stat[1].completed, stat[1].issued);

  // Both shards still serve reads for their keys.
  int reads_ok = 0;
  for (uint64_t k = 0; k < 8; ++k) {
    kv->read(k, [&](bool ok, std::vector<uint8_t> v) {
      EXPECT_TRUE(ok);
      if (ok && !v.empty()) ++reads_ok;
    });
  }
  run(sim::msec(5));
  EXPECT_EQ(reads_ok, 8);
}

TEST_F(ShardFaultFixture, EachChainDetectsItsOwnReplicaOnly) {
  size_t failed_shard = 999, failed_replica = 999;
  for (size_t s = 0; s < kShards; ++s) {
    mgrs[s]->set_on_failure([&, s](size_t r) {
      failed_shard = s;
      failed_replica = r;
      kv->set_shard_paused(s, true);
    });
  }
  run(sim::msec(5));
  mgrs[1]->kill_replica(2);
  run(sim::msec(10));
  EXPECT_EQ(failed_shard, 1u);
  EXPECT_EQ(failed_replica, 2u);
  EXPECT_FALSE(mgrs[0]->writes_paused());
  EXPECT_TRUE(mgrs[1]->writes_paused());
  EXPECT_EQ(mgrs[0]->failures_detected(), 0u);
  EXPECT_EQ(mgrs[1]->failures_detected(), 1u);
}

}  // namespace
}  // namespace hyperloop::core
