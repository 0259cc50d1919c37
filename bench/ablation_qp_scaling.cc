// Ablation: NIC connection-cache scalability vs number of co-located
// groups (§7: "It is well known that the scalability of the RDMA NICs
// decreases with the number of active write-QPs. Chain replication has a
// good load balancing property where there is at most one active write-QP
// per active partition as opposed to several per partition such as in
// fan-out protocols.")
//
// With the on-NIC QP-context cache enabled, we sweep the number of
// co-located replication groups and compare chain vs fan-out topologies:
// fan-out concentrates K write QPs per group on the primary NIC, thrashing
// its context cache first.
#include <cstdio>

#include "bench/common.h"
#include "core/fanout_group.h"

int main(int argc, char** argv) {
  using namespace hyperloop::bench;
  using hyperloop::core::FanoutGroup;
  using hyperloop::core::HyperLoopGroup;
  uint64_t ops_per_group = 400;
  if (argc > 1) ops_per_group = std::strtoull(argv[1], nullptr, 10);

  std::printf(
      "=== Ablation: QP-context-cache scaling, chain vs fan-out (1KB "
      "gWRITE, 32-entry QP cache) ===\n");
  hyperloop::stats::Table table({"groups", "topology", "avg(us)", "p99(us)",
                                 "head-NIC miss rate(%)"});

  for (int ngroups : {1, 4, 16, 32}) {
    for (int topo = 0; topo < 2; ++topo) {
      Cluster::Config cc;
      cc.num_servers = 4;
      cc.server = testbed_server();
      cc.server.nic.qp_cache_entries = 32;
      cc.seed = 9100 + static_cast<uint64_t>(ngroups) * 10 + topo;
      Cluster cluster(cc);
      std::vector<Server*> reps = {&cluster.server(0), &cluster.server(1),
                                   &cluster.server(2)};

      std::vector<std::unique_ptr<hyperloop::core::ReplicationGroup>> groups;
      for (int g = 0; g < ngroups; ++g) {
        if (topo == 0) {
          HyperLoopGroup::Config gc;
          gc.region_size = 1u << 20;
          gc.ring_slots = 256;
          gc.max_inflight = 16;
          groups.push_back(std::make_unique<HyperLoopGroup>(cluster.server(3),
                                                            reps, gc));
        } else {
          FanoutGroup::Config gc;
          gc.region_size = 1u << 20;
          gc.ring_slots = 256;
          gc.max_inflight = 16;
          groups.push_back(
              std::make_unique<FanoutGroup>(cluster.server(3), reps, gc));
        }
      }
      cluster.loop().run_until(hyperloop::sim::msec(5));

      // All groups run closed loops concurrently.
      hyperloop::stats::Histogram lat;
      std::vector<uint8_t> payload(1024, 0x21);
      uint64_t remaining = ops_per_group * static_cast<uint64_t>(ngroups);
      for (auto& gp : groups) {
        gp->client_store(0, payload.data(), 1024);
        auto step = std::make_shared<std::function<void(uint64_t)>>();
        auto* g = gp.get();
        *step = [&, g, step](uint64_t left) {
          if (left == 0) {
            cluster.loop().schedule_after(
                0, [step] { *step = nullptr; });
            return;
          }
          const auto t0 = cluster.loop().now();
          g->gwrite(0, 1024, true, [&, g, step, left, t0] {
            lat.record(cluster.loop().now() - t0);
            --remaining;
            (*step)(left - 1);
          });
        };
        (*step)(ops_per_group);
      }
      while (remaining > 0 &&
             cluster.loop().now() < hyperloop::sim::seconds(300)) {
        cluster.loop().run_until(cluster.loop().now() +
                                 hyperloop::sim::msec(10));
      }

      const auto& c0 = cluster.server(0).nic().counters();
      const double miss_rate =
          100.0 * double(c0.qp_cache_misses) /
          double(c0.qp_cache_misses + c0.qp_cache_hits + 1);
      table.add_row({std::to_string(ngroups), topo == 0 ? "chain" : "fan-out",
                     hyperloop::stats::Table::num(lat.mean() / 1e3),
                     hyperloop::stats::Table::num(lat.percentile(99) / 1e3),
                     hyperloop::stats::Table::num(miss_rate, 1)});
    }
  }
  table.print();
  return 0;
}
