// Bit-reproducibility: identical seeds must produce identical simulated
// outcomes — the property that makes every benchmark in bench/ a
// deterministic experiment rather than a measurement of the host machine.
#include <gtest/gtest.h>

#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "core/hyperloop_group.h"
#include "core/naive_group.h"
#include "core/server.h"
#include "stats/histogram.h"

namespace hyperloop {
namespace {

struct RunResult {
  std::vector<sim::Duration> latencies;
  uint64_t ctx_switches;
  sim::Time end_time;
};

RunResult run_once(uint64_t seed, bool naive) {
  core::Cluster cluster({.num_servers = 4, .seed = seed});
  for (size_t s = 0; s < 3; ++s) {
    cluster.server(s).add_background_load(
        16, cluster.fork_rng(),
        {.tenants = 0, .median_burst = sim::usec(100), .burst_sigma = 1.0,
         .mean_think = sim::usec(300), .max_batch = 2, .fanout = 8});
  }
  std::unique_ptr<core::ReplicationGroup> group;
  std::vector<core::Server*> reps = {&cluster.server(0), &cluster.server(1),
                                     &cluster.server(2)};
  if (naive) {
    core::NaiveRdmaGroup::Config gc;
    gc.region_size = 1 << 20;
    group = std::make_unique<core::NaiveRdmaGroup>(cluster.server(3), reps, gc);
  } else {
    group = std::make_unique<core::HyperLoopGroup>(
        cluster.server(3), reps,
        core::HyperLoopGroup::Config{
            .region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16});
  }
  cluster.loop().run_until(sim::msec(5));

  RunResult r{};
  const int kOps = 100;
  int done = 0;
  std::function<void()> next = [&] {
    if (done == kOps) return;
    const sim::Time t0 = cluster.loop().now();
    group->gwrite(0, 128, true, [&, t0] {
      r.latencies.push_back(cluster.loop().now() - t0);
      ++done;
      next();
    });
  };
  next();
  cluster.loop().run_until(cluster.loop().now() + sim::seconds(5));
  r.ctx_switches = cluster.server(0).sched().total_context_switches();
  r.end_time = cluster.loop().now();
  return r;
}

TEST(Determinism, HyperLoopRunsAreBitIdentical) {
  const RunResult a = run_once(42, false);
  const RunResult b = run_once(42, false);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.ctx_switches, b.ctx_switches);
}

TEST(Determinism, NaiveRunsAreBitIdentical) {
  const RunResult a = run_once(43, true);
  const RunResult b = run_once(43, true);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.ctx_switches, b.ctx_switches);
}

TEST(Determinism, DifferentSeedsChangeTheLoadedPath) {
  // The loaded (CPU-mediated) baseline must actually respond to the seed.
  const RunResult a = run_once(1, true);
  const RunResult b = run_once(2, true);
  EXPECT_NE(a.latencies, b.latencies);
}

TEST(Determinism, YcsbStreamIsSeedDeterministic) {
  apps::WorkloadGenerator g1(apps::WorkloadSpec::A(), 1000, sim::Rng(5));
  apps::WorkloadGenerator g2(apps::WorkloadSpec::A(), 1000, sim::Rng(5));
  for (int i = 0; i < 10000; ++i) {
    const apps::Op a = g1.next();
    const apps::Op b = g2.next();
    EXPECT_EQ(static_cast<int>(a.type), static_cast<int>(b.type));
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.scan_len, b.scan_len);
  }
}

}  // namespace
}  // namespace hyperloop
