#include "core/naive_group.h"

#include <gtest/gtest.h>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

struct NaiveFixture : ::testing::Test {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  std::unique_ptr<NaiveRdmaGroup> make_group(NaiveRdmaGroup::Mode mode) {
    NaiveRdmaGroup::Config cfg;
    cfg.region_size = 1 << 20;
    cfg.mode = mode;
    return std::make_unique<NaiveRdmaGroup>(cluster.server(3),
                                            chain_replicas(cluster), cfg);
  }

  void run(sim::Duration d = sim::msec(100)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(NaiveFixture, PollingModeWorksAndPinsCores) {
  auto g = make_group(NaiveRdmaGroup::Mode::kPolling);
  bool done = false;
  g->gwrite(0, 64, true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(g->replica_server(i).sched().shared_cores(), 7);
  }
}

TEST_F(NaiveFixture, LoadedServerInflatesLatencyVsPolling) {
  // Event-driven replicas under CPU load should be much slower than
  // polling replicas for the same ops — the §6.2 effect.
  for (size_t i = 0; i < 3; ++i) {
    cluster.server(i).add_background_load(
        48, cluster.fork_rng(),
        {.tenants = 0, .median_burst = sim::usec(80), .burst_sigma = 1.0,
         .mean_think = sim::usec(10)});
  }
  auto event_group = make_group(NaiveRdmaGroup::Mode::kEvent);
  auto poll_group = make_group(NaiveRdmaGroup::Mode::kPolling);
  run(sim::msec(10));  // warm up the load

  sim::Time event_lat = 0, poll_lat = 0;
  sim::Time t0 = cluster.loop().now();
  bool d1 = false;
  event_group->gwrite(0, 64, false, [&] {
    d1 = true;
    event_lat = cluster.loop().now() - t0;
  });
  run(sim::msec(200));
  ASSERT_TRUE(d1);

  t0 = cluster.loop().now();
  bool d2 = false;
  poll_group->gwrite(0, 64, false, [&] {
    d2 = true;
    poll_lat = cluster.loop().now() - t0;
  });
  run(sim::msec(200));
  ASSERT_TRUE(d2);

  EXPECT_GT(event_lat, poll_lat);
}

TEST_F(NaiveFixture, SharedPollingCompletesWithoutPinnedCores) {
  auto g = make_group(NaiveRdmaGroup::Mode::kSharedPolling);
  int done = 0;
  for (int k = 0; k < 50; ++k) {
    uint64_t v = static_cast<uint64_t>(k) + 9;
    g->client_store(static_cast<uint64_t>(k) * 16, &v, 8);
    g->gwrite(static_cast<uint64_t>(k) * 16, 8, true, [&] { ++done; });
  }
  run(sim::msec(500));
  ASSERT_EQ(done, 50);
  uint64_t v = 0;
  g->replica_load(2, 49 * 16, &v, 8);
  EXPECT_EQ(v, 58u);
  for (size_t i = 0; i < 3; ++i) {
    // No core reservation; the poll loop burns shared CPU instead.
    EXPECT_EQ(g->replica_server(i).sched().shared_cores(), 8);
    EXPECT_GT(g->replica_cpu_time(i), sim::msec(1));
  }
}

}  // namespace
}  // namespace hyperloop::core
