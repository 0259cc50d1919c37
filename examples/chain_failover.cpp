// Chain failover: failure detection and catch-up recovery while a client
// keeps writing (the control-path story from §5).
//
//   build/examples/chain_failover
//
// Timeline: steady writes -> replica 1 power-fails -> heartbeats miss ->
// detector pauses the data path -> replacement catches up from a healthy
// neighbor -> epoch bumps, writes resume, and the recovered replica's
// region image matches the others byte for byte (the exit status is
// non-zero if it does not).
#include <cstdio>
#include <cstring>

#include "core/chain_manager.h"
#include "core/hyperloop_group.h"
#include "core/server.h"

using namespace hyperloop;

int main() {
  core::Cluster::Config cc;
  cc.num_servers = 4;
  core::Cluster cluster(cc);

  core::HyperLoopGroup::Config gc;
  gc.region_size = 1 << 20;
  std::vector<core::Server*> reps = {&cluster.server(0), &cluster.server(1),
                                     &cluster.server(2)};
  core::HyperLoopGroup group(cluster.server(3), reps, gc);

  std::vector<core::ChainManager::ReplicaInfo> infos;
  for (size_t i = 0; i < 3; ++i) {
    infos.push_back({&group.replica_server(i), group.replica_region_base(i)});
  }
  core::ChainManager mgr(cluster.server(3), infos, gc.region_size, {});
  mgr.set_on_failure([&](size_t i) {
    std::printf("t=%.2fms: heartbeat detector declared replica %zu DEAD; "
                "writes paused\n",
                sim::to_ms(cluster.loop().now()), i);
  });
  mgr.set_on_recovered([&](size_t i) {
    std::printf("t=%.2fms: replica %zu caught up and rejoined (epoch %llu)\n",
                sim::to_ms(cluster.loop().now()), i,
                static_cast<unsigned long long>(mgr.epoch()));
  });
  mgr.start();

  // Steady writer: one 512B durable write per 100us while the chain is up.
  uint64_t written = 0, skipped = 0;
  std::vector<uint8_t> payload(512);
  std::function<void()> tick = [&] {
    if (!mgr.writes_paused()) {
      const uint64_t seq = written++;
      std::memcpy(payload.data(), &seq, 8);
      group.client_store(64 + (seq % 512) * 1024, payload.data(), 512);
      group.gwrite(64 + (seq % 512) * 1024, 512, true, [] {});
    } else {
      ++skipped;
    }
    cluster.loop().schedule_after(sim::usec(100), tick);
  };
  tick();

  cluster.loop().run_until(sim::msec(10));
  std::printf("t=%.2fms: injecting power failure on replica 1\n",
              sim::to_ms(cluster.loop().now()));
  mgr.kill_replica(1);

  cluster.loop().run_until(sim::msec(20));
  std::printf("t=%.2fms: replacement for replica 1 boots, requesting "
              "catch-up\n",
              sim::to_ms(cluster.loop().now()));
  mgr.revive_replica(1);

  cluster.loop().run_until(sim::msec(40));
  std::printf("writes issued: %llu, ticks skipped while paused: %llu\n",
              static_cast<unsigned long long>(written),
              static_cast<unsigned long long>(skipped));

  // Byte-compare the recovered replica against a healthy one.
  std::vector<uint8_t> img1(gc.region_size), img2(gc.region_size);
  group.replica_load(1, 0, img1.data(), static_cast<uint32_t>(img1.size()));
  group.replica_load(2, 0, img2.data(), static_cast<uint32_t>(img2.size()));
  std::printf("recovered image matches healthy replica: %s\n",
              img1 == img2 ? "yes" : "NO");
  return img1 == img2 ? 0 : 1;
}
