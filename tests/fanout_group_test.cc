#include "core/fanout_group.h"

#include <gtest/gtest.h>

#include <string>

#include "core/server.h"

namespace hyperloop::core {
namespace {

struct FanoutFixture : ::testing::Test {
  // 0 = primary, 1..2 = backups, 3 = client
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  std::unique_ptr<FanoutGroup> make_group(size_t replicas = 3) {
    FanoutGroup::Config cfg;
    cfg.region_size = 1 << 20;
    cfg.ring_slots = 64;
    cfg.max_inflight = 16;
    std::vector<Server*> r;
    for (size_t i = 0; i < replicas; ++i) r.push_back(&cluster.server(i));
    return std::make_unique<FanoutGroup>(cluster.server(3), r, cfg);
  }

  void run(sim::Duration d = sim::msec(100)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(FanoutFixture, GwriteReachesPrimaryAndAllBackups) {
  auto g = make_group();
  const std::string data = "fanout-payload";
  g->client_store(128, data.data(), data.size());
  bool done = false;
  g->gwrite(128, data.size(), false, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    std::string out(data.size(), '\0');
    g->replica_load(i, 128, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
  EXPECT_EQ(g->total_rnr_stalls(), 0u);
}

TEST_F(FanoutFixture, FlushedWriteSurvivesCrashEverywhere) {
  auto g = make_group();
  const std::string data = "fanout-durable";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    std::string out(data.size(), '\0');
    g->replica_load(i, 0, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
}

TEST_F(FanoutFixture, GmemcpyExecutesOnEveryReplica) {
  auto g = make_group();
  const std::string data = "copy-everywhere";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] {
    g->gmemcpy(0, 8192, data.size(), true, [&] { done = true; });
  });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    std::string out(data.size(), '\0');
    g->replica_load(i, 8192, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
  std::string cli(data.size(), '\0');
  g->client_load(8192, cli.data(), cli.size());
  EXPECT_EQ(cli, data);
}

TEST_F(FanoutFixture, GcasAppliesAndReturnsResultMap) {
  auto g = make_group();
  std::vector<uint64_t> result;
  g->gcas(512, 0, 55, ExecMap::all(3),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  for (uint64_t v : result) EXPECT_EQ(v, 0u);
  for (size_t i = 0; i < 3; ++i) {
    uint64_t v = 0;
    g->replica_load(i, 512, &v, 8);
    EXPECT_EQ(v, 55u);
  }
}

TEST_F(FanoutFixture, GcasExecuteMapSelectsReplicas) {
  auto g = make_group();
  std::vector<uint64_t> result;
  // Skip the primary, CAS only backup 1 (index 2 in group terms).
  g->gcas(512, 0, 9, ExecMap::one(2),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  uint64_t v0 = 0, v1 = 0, v2 = 0;
  g->replica_load(0, 512, &v0, 8);
  g->replica_load(1, 512, &v1, 8);
  g->replica_load(2, 512, &v2, 8);
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v1, 0u);
  EXPECT_EQ(v2, 9u);
}

TEST_F(FanoutFixture, GcasMismatchReportsHolder) {
  auto g = make_group();
  bool first = false;
  g->gcas(256, 0, 7, ExecMap::all(3),
          [&](const CasResult&) { first = true; });
  run();
  ASSERT_TRUE(first);
  std::vector<uint64_t> result;
  g->gcas(256, 0, 8, ExecMap::all(3),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  for (uint64_t v : result) EXPECT_EQ(v, 7u);
}

TEST_F(FanoutFixture, PipelinedWritesComplete) {
  auto g = make_group();
  int done = 0;
  const int n = 200;  // > ring to exercise refill
  for (int k = 0; k < n; ++k) {
    uint64_t v = static_cast<uint64_t>(k) * 5 + 1;
    g->client_store(static_cast<uint64_t>(k) * 32, &v, 8);
    g->gwrite(static_cast<uint64_t>(k) * 32, 8, false, [&] { ++done; });
  }
  run(sim::msec(500));
  ASSERT_EQ(done, n);
  for (int k = 0; k < n; k += 13) {
    for (size_t i = 0; i < 3; ++i) {
      uint64_t v = 0;
      g->replica_load(i, static_cast<uint64_t>(k) * 32, &v, 8);
      EXPECT_EQ(v, static_cast<uint64_t>(k) * 5 + 1);
    }
  }
}

TEST_F(FanoutFixture, SingleBackupWorks) {
  auto g = make_group(2);
  const uint64_t v = 11;
  g->client_store(0, &v, 8);
  bool done = false;
  g->gwrite(0, 8, true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  uint64_t out = 0;
  g->replica_load(1, 0, &out, 8);
  EXPECT_EQ(out, 11u);
}

TEST_F(FanoutFixture, NoReplicaCpuOnCriticalPath) {
  auto g = make_group();
  sim::Duration before = 0;
  for (size_t i = 0; i < 3; ++i) {
    before += g->replica_server(i).sched().total_busy();
  }
  int done = 0;
  for (int k = 0; k < 100; ++k) g->gwrite(0, 256, true, [&] { ++done; });
  run(sim::msec(20));
  ASSERT_EQ(done, 100);
  sim::Duration after = 0;
  for (size_t i = 0; i < 3; ++i) {
    after += g->replica_server(i).sched().total_busy();
  }
  EXPECT_LT(after - before, sim::msec(5));  // refill only
}

}  // namespace
}  // namespace hyperloop::core
