// Shared harness pieces for the paper-reproduction benchmarks.
//
// Testbed model (§6): servers with two 8-core Xeons (16 cores), 56 Gbps
// RDMA NICs, battery-backed DRAM as NVM. Multi-tenancy is emulated with
// CPU-intensive background tenants (the stress-ng analogue), sized so the
// shared cores run near saturation — the regime in which the paper's
// event-driven baselines develop their millisecond tails.
#pragma once

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/group.h"
#include "core/hyperloop_group.h"
#include "core/naive_group.h"
#include "core/server.h"
#include "core/sharded_group.h"
#include "core/sharded_reader.h"
#include "core/tcp_group.h"
#include "stats/histogram.h"
#include "stats/table.h"

namespace hyperloop::bench {

using core::Cluster;
using core::Server;

/// 16-core dual-Xeon server as in the paper's testbed.
inline core::ServerConfig testbed_server(int cores = 16) {
  core::ServerConfig s;
  s.cpu.num_cores = cores;
  s.cpu.context_switch_cost = sim::usec(5);
  s.cpu.timeslice = sim::msec(1);
  s.cpu.wakeup_overhead = sim::usec(3);
  // Arenas are demand-zero, so only the pages a run writes cost memory or
  // set-up time; these sizes bound what one experiment may allocate.
  s.mem_capacity = 96u << 20;
  s.nvm_size = 48u << 20;
  return s;
}

/// Builds `replicas` storage servers plus one client machine (the last).
/// `num_nics` > 1 gives every server that many NICs (one per shard chain
/// in the sharded experiments).
inline std::unique_ptr<Cluster> make_cluster(int replicas, uint64_t seed,
                                             int cores = 16,
                                             int num_nics = 1) {
  Cluster::Config cc;
  cc.num_servers = replicas + 1;
  cc.server = testbed_server(cores);
  cc.server.num_nics = num_nics;
  cc.seed = seed;
  return std::make_unique<Cluster>(cc);
}

/// The stress-ng analogue: near-saturating, bursty background tenants.
/// `intensity` ~ offered load per shared core (1.0 = exactly saturated).
struct StressProfile {
  int tenants = 64;
  sim::Duration median_burst = sim::usec(150);
  double burst_sigma = 1.2;  ///< heavy-tailed handler times
  int max_batch = 4;         ///< requests served back-to-back per thread
  int fanout = 64;           ///< threads woken per tenant activation
};

/// Calibrated so the Naïve-RDMA baseline lands in the paper's §6.1 regime
/// (avg ~0.5ms, p95 ~3-4ms, p99 ~10ms for 128B gWRITE at group size 3).
constexpr double kPaperIntensity = 0.66;

inline void add_stress(Cluster& cluster, size_t server_idx, double intensity,
                       StressProfile p = StressProfile{}) {
  sim::BackgroundLoad::Config lc;
  lc.median_burst = p.median_burst;
  lc.burst_sigma = p.burst_sigma;
  lc.max_batch = p.max_batch;
  lc.fanout = p.fanout;
  // CPU demand per activation = fanout * batch * mean_burst, with mean
  // lognormal burst = median * exp(sigma^2/2). The think time is sized so
  // average offered load = intensity * cores.
  const double mean_burst_ns = static_cast<double>(p.median_burst) *
                               std::exp(p.burst_sigma * p.burst_sigma / 2.0);
  const double mean_batch = (1.0 + p.max_batch) / 2.0;
  const double mean_fanout = (1.0 + p.fanout) / 2.0;
  const int cores = cluster.server(server_idx).sched().num_cores();
  const double per_tenant_util = intensity * cores / p.tenants;
  const double active_ns = mean_fanout * mean_batch * mean_burst_ns;
  lc.mean_think = static_cast<sim::Duration>(
      active_ns * (1.0 - per_tenant_util) / per_tenant_util);
  lc.tenants = 0;  // set by add_background_load
  cluster.server(server_idx).add_background_load(p.tenants,
                                                 cluster.fork_rng(), lc);
}

enum class Backend { kHyperLoop, kNaiveEvent, kNaivePolling, kTcp };

inline const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kHyperLoop: return "HyperLoop";
    case Backend::kNaiveEvent: return "Naive-Event";
    case Backend::kNaivePolling: return "Naive-Polling";
    case Backend::kTcp: return "Native-TCP";
  }
  return "?";
}

/// Builds a replication group of `group_size` replicas (servers 0..G-1)
/// coordinated by the last server of the cluster.
inline std::unique_ptr<core::BackendGroup> make_group(
    Cluster& cluster, int group_size, Backend backend,
    uint64_t region_size = 4u << 20) {
  std::vector<Server*> reps;
  for (int i = 0; i < group_size; ++i) reps.push_back(&cluster.server(i));
  Server& client = cluster.server(cluster.size() - 1);
  switch (backend) {
    case Backend::kHyperLoop: {
      core::HyperLoopGroup::Config gc;
      gc.region_size = region_size;
      // Deep rings: under heavy tenant load the refill process can be
      // scheduled ~10ms late; the ring must absorb that many operations
      // or RNR stalls leak scheduler latency into the offloaded path
      // (bench/ablation_refill quantifies exactly this).
      gc.ring_slots = 2048;
      gc.max_inflight = 64;
      return std::make_unique<core::HyperLoopGroup>(client, reps, gc);
    }
    case Backend::kNaiveEvent:
    case Backend::kNaivePolling: {
      core::NaiveRdmaGroup::Config gc;
      gc.region_size = region_size;
      gc.mode = backend == Backend::kNaivePolling
                    ? core::NaiveRdmaGroup::Mode::kPolling
                    : core::NaiveRdmaGroup::Mode::kEvent;
      gc.max_inflight = 64;
      gc.recv_slots = 512;
      return std::make_unique<core::NaiveRdmaGroup>(client, reps, gc);
    }
    case Backend::kTcp: {
      core::TcpReplicationGroup::Config gc;
      gc.region_size = region_size;
      return std::make_unique<core::TcpReplicationGroup>(client, reps, gc);
    }
  }
  return nullptr;
}

/// Builds a ShardedGroup of `shards` HyperLoop chains over servers
/// 0..group_size-1, client = last server. Each chain gets its own NIC
/// (nic_index = shard; build the cluster with num_nics >= shards) and
/// sees the full logical region of shards * slice_size bytes (identity
/// addressing); a range router with span = slice_size does the
/// partitioning.
inline std::unique_ptr<core::ShardedGroup> make_sharded_group(
    Cluster& cluster, int group_size, uint32_t shards,
    uint64_t slice_size = 1u << 20) {
  std::vector<Server*> reps;
  for (int i = 0; i < group_size; ++i) reps.push_back(&cluster.server(i));
  Server& client = cluster.server(cluster.size() - 1);
  std::vector<std::unique_ptr<core::ReplicationGroup>> kids;
  for (uint32_t s = 0; s < shards; ++s) {
    core::HyperLoopGroup::Config gc;
    gc.region_size = slice_size * shards;
    gc.ring_slots = 2048;  // same depth rationale as make_group
    gc.max_inflight = 64;
    gc.nic_index = s;
    kids.push_back(std::make_unique<core::HyperLoopGroup>(client, reps, gc));
  }
  return std::make_unique<core::ShardedGroup>(
      std::move(kids), core::ShardRouter::range(shards, slice_size));
}

/// Builds a ShardedReader over the chains of a ShardedGroup produced by
/// make_sharded_group: one RemoteReader per shard whose targets are every
/// replica of that chain (indexed by chain position, so policy picks can
/// be read-locked), with the reader's QPs on the chain's NIC and the
/// group's own router doing the partitioning.
inline std::unique_ptr<core::ShardedReader> make_sharded_reader(
    core::ShardedGroup& sg, Server& client,
    core::RemoteReader::Policy policy =
        core::RemoteReader::Policy::kRoundRobin,
    uint32_t slots = 32, uint32_t slot_size = 16384) {
  std::vector<std::unique_ptr<core::RemoteReader>> readers;
  for (uint32_t s = 0; s < sg.shards(); ++s) {
    auto& hl = static_cast<core::HyperLoopGroup&>(sg.shard(s));
    std::vector<core::RemoteReader::Target> targets;
    for (size_t i = 0; i < hl.group_size(); ++i) {
      targets.push_back({&hl.replica_server(i), hl.replica_region_base(i),
                         hl.replica_data_rkey(i)});
    }
    core::RemoteReader::Options opts;
    opts.slots = slots;
    opts.slot_size = slot_size;
    opts.policy = policy;
    opts.nic_index = s;
    readers.push_back(std::make_unique<core::RemoteReader>(
        client, std::move(targets), opts));
  }
  return std::make_unique<core::ShardedReader>(std::move(readers),
                                               sg.router());
}

/// Runs a closed-loop latency benchmark: `ops` sequential operations, each
/// issued when the previous completes, recording completion latency.
inline stats::Histogram closed_loop(
    sim::EventLoop& loop, uint64_t ops,
    const std::function<void(std::function<void()>)>& issue,
    sim::Duration max_sim_time = sim::seconds(600)) {
  stats::Histogram lat;
  uint64_t remaining = ops;
  bool finished = false;
  std::function<void()> next = [&] {
    if (remaining == 0) {
      finished = true;
      return;
    }
    --remaining;
    const sim::Time t0 = loop.now();
    issue([&, t0] {
      lat.record(loop.now() - t0);
      next();
    });
  };
  next();
  const sim::Time deadline = loop.now() + max_sim_time;
  while (!finished && loop.now() < deadline) {
    loop.run_until(std::min(deadline, loop.now() + sim::msec(100)));
  }
  if (!finished) {
    std::fprintf(stderr, "WARNING: closed_loop timed out with %llu ops left\n",
                 static_cast<unsigned long long>(remaining));
  }
  return lat;
}

}  // namespace hyperloop::bench
