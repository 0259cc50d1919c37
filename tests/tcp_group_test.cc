#include "core/tcp_group.h"

#include <gtest/gtest.h>

#include <string>

#include "core/server.h"

namespace hyperloop::core {
namespace {

struct TcpGroupFixture : ::testing::Test {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  std::unique_ptr<TcpReplicationGroup> make_group(size_t replicas = 3) {
    TcpReplicationGroup::Config cfg;
    cfg.region_size = 1 << 20;
    std::vector<Server*> r;
    for (size_t i = 0; i < replicas; ++i) r.push_back(&cluster.server(i));
    return std::make_unique<TcpReplicationGroup>(cluster.server(3), r, cfg);
  }

  void run(sim::Duration d = sim::msec(200)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(TcpGroupFixture, GwriteReplicates) {
  auto g = make_group();
  const std::string data = "tcp-native-write";
  g->client_store(64, data.data(), data.size());
  bool done = false;
  g->gwrite(64, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    std::string out(data.size(), '\0');
    g->replica_load(i, 64, out.data(), out.size());
    EXPECT_EQ(out, data);
  }
}

TEST_F(TcpGroupFixture, FlushMakesDurable) {
  auto g = make_group();
  const std::string data = "tcp-durable";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  g->replica_server(1).nvm().crash();
  std::string out(data.size(), '\0');
  g->replica_load(1, 0, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(TcpGroupFixture, GmemcpyAndGcas) {
  auto g = make_group();
  const std::string data = "move-me";
  g->client_store(0, data.data(), data.size());
  bool all = false;
  g->gwrite(0, data.size(), true, [&] {
    g->gmemcpy(0, 4096, data.size(), true, [&] {
      g->gcas(8192, 0, 33, ExecMap::all(3),
              [&](const CasResult& r) {
                EXPECT_EQ(r.size(), 3u);
                all = true;
              });
    });
  });
  run();
  ASSERT_TRUE(all);
  std::string out(data.size(), '\0');
  g->replica_load(2, 4096, out.data(), out.size());
  EXPECT_EQ(out, data);
  uint64_t v = 0;
  g->replica_load(0, 8192, &v, 8);
  EXPECT_EQ(v, 33u);
}

TEST_F(TcpGroupFixture, EveryHopConsumesReplicaCpu) {
  auto g = make_group();
  bool done = false;
  g->gwrite(0, 512, true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(g->replica_cpu_time(i), 0) << i;
  }
}

TEST_F(TcpGroupFixture, TwoGroupsOnSameServersAutoAssignPorts) {
  auto g1 = make_group();
  auto g2 = make_group();
  bool d1 = false, d2 = false;
  const uint64_t a = 1, b = 2;
  g1->client_store(0, &a, 8);
  g2->client_store(0, &b, 8);
  g1->gwrite(0, 8, false, [&] { d1 = true; });
  g2->gwrite(0, 8, false, [&] { d2 = true; });
  run();
  ASSERT_TRUE(d1);
  ASSERT_TRUE(d2);
  uint64_t v1 = 0, v2 = 0;
  g1->replica_load(0, 0, &v1, 8);
  g2->replica_load(0, 0, &v2, 8);
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
}

TEST_F(TcpGroupFixture, PipelinedWrites) {
  auto g = make_group();
  int done = 0;
  const int n = 150;
  for (int k = 0; k < n; ++k) {
    uint64_t v = static_cast<uint64_t>(k) + 100;
    g->client_store(static_cast<uint64_t>(k) * 16, &v, 8);
    g->gwrite(static_cast<uint64_t>(k) * 16, 8, false, [&] { ++done; });
  }
  run(sim::seconds(2));
  ASSERT_EQ(done, n);
  uint64_t v = 0;
  g->replica_load(2, 149 * 16, &v, 8);
  EXPECT_EQ(v, 249u);
}

}  // namespace
}  // namespace hyperloop::core
