#include "core/chain_manager.h"

#include <gtest/gtest.h>

#include <string>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

struct ChainFixture : ::testing::Test {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  HyperLoopGroup::Config gcfg{
      .region_size = 256 << 10, .ring_slots = 64, .max_inflight = 16};
  std::unique_ptr<HyperLoopGroup> group = make_chain(cluster, gcfg);

  std::unique_ptr<ChainManager> make_mgr(ChainManager::Config cfg = {}) {
    std::vector<ChainManager::ReplicaInfo> infos;
    for (size_t i = 0; i < 3; ++i) {
      infos.push_back(ChainManager::ReplicaInfo{
          &group->replica_server(i), group->replica_region_base(i)});
    }
    return std::make_unique<ChainManager>(cluster.server(3), infos,
                                          gcfg.region_size, cfg);
  }

  void run(sim::Duration d) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(ChainFixture, HealthyChainStaysUp) {
  auto mgr = make_mgr();
  mgr->start();
  run(sim::msec(50));
  EXPECT_EQ(mgr->failures_detected(), 0u);
  EXPECT_FALSE(mgr->writes_paused());
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(mgr->replica_alive(i));
}

TEST_F(ChainFixture, DetectsFailureWithinThreshold) {
  auto mgr = make_mgr();
  size_t failed = 999;
  mgr->set_on_failure([&](size_t i) { failed = i; });
  mgr->start();
  run(sim::msec(10));
  mgr->kill_replica(1);
  run(sim::msec(20));  // > 3 * 1ms heartbeats
  EXPECT_EQ(mgr->failures_detected(), 1u);
  EXPECT_EQ(failed, 1u);
  EXPECT_TRUE(mgr->writes_paused());
}

TEST_F(ChainFixture, RecoveryCopiesStateAndResumes) {
  // Replicate some durable data first.
  const std::string data = "pre-failure-state";
  group->client_store(1024, data.data(), data.size());
  bool wrote = false;
  group->gwrite(1024, data.size(), true, [&] { wrote = true; });
  run(sim::msec(10));
  ASSERT_TRUE(wrote);

  auto mgr = make_mgr();
  size_t recovered = 999;
  mgr->set_on_recovered([&](size_t i) { recovered = i; });
  mgr->start();
  run(sim::msec(5));

  mgr->kill_replica(0);
  // Scribble over the dead replica's region to prove catch-up rewrites it.
  group->replica_server(0).mem().fill(group->replica_region_base(0) + 1024,
                                      0xFF, data.size());
  run(sim::msec(20));
  ASSERT_TRUE(mgr->writes_paused());

  mgr->revive_replica(0);
  run(sim::msec(50));
  EXPECT_EQ(recovered, 0u);
  EXPECT_FALSE(mgr->writes_paused());
  EXPECT_EQ(mgr->epoch(), 2u);
  EXPECT_EQ(mgr->recoveries(), 1u);

  std::string out(data.size(), '\0');
  group->replica_load(0, 1024, out.data(), out.size());
  EXPECT_EQ(out, data);
  // Recovered state is durable (catch-up persists it).
  group->replica_server(0).nvm().crash();
  group->replica_load(0, 1024, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(ChainFixture, UnflushedDataLostOnKillButLogRecovers) {
  const std::string data = "volatile-at-kill";
  group->client_store(64, data.data(), data.size());
  bool wrote = false;
  group->gwrite(64, data.size(), /*flush=*/false, [&] { wrote = true; });
  run(sim::msec(10));
  ASSERT_TRUE(wrote);

  auto mgr = make_mgr();
  mgr->start();
  mgr->kill_replica(2);  // crash drops the un-flushed write
  std::string out(data.size(), '\0');
  group->replica_load(2, 64, out.data(), out.size());
  EXPECT_NE(out, data);

  // Catch-up from a healthy replica (which also lacked durability... but
  // replica 1 holds the data in *live* memory, and catch-up copies live
  // state then persists it).
  mgr->revive_replica(2);
  run(sim::msec(50));
  group->replica_load(2, 64, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(ChainFixture, MultipleSequentialFailures) {
  auto mgr = make_mgr();
  mgr->start();
  run(sim::msec(5));
  for (size_t i = 0; i < 3; ++i) {
    mgr->kill_replica(i);
    run(sim::msec(20));
    mgr->revive_replica(i);
    run(sim::msec(50));
    EXPECT_TRUE(mgr->replica_alive(i));
    EXPECT_FALSE(mgr->writes_paused()) << "after recovery " << i;
  }
  EXPECT_EQ(mgr->failures_detected(), 3u);
  EXPECT_EQ(mgr->recoveries(), 3u);
  EXPECT_EQ(mgr->epoch(), 4u);
}

TEST(RemoteReaderTest, ReadsFromReplica) {
  Cluster cluster({.num_servers = 4});
  HyperLoopGroup group(
      cluster.server(3), chain_replicas(cluster),
      {.region_size = 256 << 10, .ring_slots = 64, .max_inflight = 16});

  const std::string data = "read-me-one-sided";
  group.client_store(2048, data.data(), data.size());
  bool wrote = false;
  group.gwrite(2048, data.size(), false, [&] { wrote = true; });
  cluster.loop().run_until(sim::msec(10));
  ASSERT_TRUE(wrote);

  // Tail reader (replica 2).
  RemoteReader reader(cluster.server(3),
                      {{&group.replica_server(2), group.replica_region_base(2),
                        group.replica_data_rkey(2)}},
                      RemoteReader::Options{});
  std::string got;
  reader.read(2048, data.size(), [&](ReadView bytes) {
    got.assign(bytes.begin(), bytes.end());
  });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(10));
  EXPECT_EQ(got, data);
}

TEST(RemoteReaderTest, ManyConcurrentReadsExerciseSlotRing) {
  Cluster cluster({.num_servers = 2});
  HyperLoopGroup group(
      cluster.server(1), chain_replicas(cluster, 1),
      {.region_size = 256 << 10, .ring_slots = 64, .max_inflight = 16});

  for (int k = 0; k < 100; ++k) {
    uint64_t v = static_cast<uint64_t>(k) * 11;
    group.client_store(static_cast<uint64_t>(k) * 64, &v, 8);
  }
  int wrote = 0;
  for (int k = 0; k < 100; ++k) {
    group.gwrite(static_cast<uint64_t>(k) * 64, 8, false, [&] { ++wrote; });
  }
  cluster.loop().run_until(sim::msec(50));
  ASSERT_EQ(wrote, 100);

  RemoteReader reader(cluster.server(1), replica_targets(group), {.slots = 8});
  int ok = 0;
  for (int k = 0; k < 100; ++k) {
    reader.read(static_cast<uint64_t>(k) * 64, 8, [&, k](ReadView bytes) {
      uint64_t v = 0;
      std::memcpy(&v, bytes.data(), 8);
      EXPECT_EQ(v, static_cast<uint64_t>(k) * 11);
      ++ok;
    });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(50));
  EXPECT_EQ(ok, 100);
}

}  // namespace
}  // namespace hyperloop::core
