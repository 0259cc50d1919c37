// One factory for every ReplicationGroup backend, for tests that run the
// same scenario on each of them (parameterize over kAllBackends and name
// the instances with backend_name). make_backend returns the single-chain
// ones as a BackendGroup, whose replica accessors need no cast.
//
// Servers 0..2 of backend_cluster_config() are the replicas and server 3
// is the client. Every server has two NICs, so the 2-shard ShardedGroup
// puts each of its HyperLoop chains on its own NIC.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain_setup.h"
#include "core/fanout_group.h"
#include "core/naive_group.h"
#include "core/sharded_group.h"
#include "core/tcp_group.h"

namespace hyperloop::core {

enum class Backend {
  kHyperLoop,
  kNaiveEvent,
  kNaivePolling,
  kNaiveSharedPolling,
  kFanout,
  kTcp,
  kSharded,
};

inline constexpr Backend kAllBackends[] = {
    Backend::kHyperLoop,         Backend::kNaiveEvent, Backend::kNaivePolling,
    Backend::kNaiveSharedPolling, Backend::kFanout,    Backend::kTcp,
    Backend::kSharded,
};

inline std::string backend_name(const ::testing::TestParamInfo<Backend>& p) {
  switch (p.param) {
    case Backend::kHyperLoop: return "HyperLoop";
    case Backend::kNaiveEvent: return "NaiveEvent";
    case Backend::kNaivePolling: return "NaivePolling";
    case Backend::kNaiveSharedPolling: return "NaiveSharedPolling";
    case Backend::kFanout: return "Fanout";
    case Backend::kTcp: return "Tcp";
    case Backend::kSharded: return "Sharded2";
  }
  return "Unknown";
}

inline Cluster::Config backend_cluster_config() {
  Cluster::Config c;
  c.num_servers = 4;
  c.server.cpu.num_cores = 8;
  c.server.num_nics = 2;
  // Arenas cost only the pages a test writes; these tests use a few MB.
  c.server.mem_capacity = 32u << 20;
  c.server.nvm_size = 8u << 20;
  return c;
}

/// Every backend but the sharded one: one chain, one BackendGroup.
inline constexpr Backend kSingleChainBackends[] = {
    Backend::kHyperLoop,          Backend::kNaiveEvent, Backend::kNaivePolling,
    Backend::kNaiveSharedPolling, Backend::kFanout,     Backend::kTcp,
};

/// A HyperLoop chain over replicas 0..replicas-1 and `region_size` bytes
/// whose credit window admits `max_inflight` ops, its QPs on NIC `nic`.
inline std::unique_ptr<HyperLoopGroup> make_hyperloop(Cluster& cluster,
                                                      uint64_t region_size,
                                                      uint32_t max_inflight,
                                                      uint32_t nic = 0,
                                                      size_t replicas = 3) {
  return std::make_unique<HyperLoopGroup>(
      cluster.server(3), chain_replicas(cluster, replicas),
      HyperLoopGroup::Config{.region_size = region_size,
                             .ring_slots = 4 * max_inflight,
                             .max_inflight = max_inflight,
                             .nic_index = nic});
}

/// A group of single-chain backend `b` (any but kSharded) over replicas
/// 0..replicas-1 and `region_size` bytes whose credit window admits
/// `max_inflight` ops. The client is server 3 whatever the group size.
inline std::unique_ptr<BackendGroup> make_backend(Backend b, Cluster& cluster,
                                                  uint64_t region_size,
                                                  uint32_t max_inflight,
                                                  size_t replicas = 3) {
  Server& client = cluster.server(3);
  const std::vector<Server*> reps = chain_replicas(cluster, replicas);
  auto naive = [&](NaiveRdmaGroup::Mode mode) {
    NaiveRdmaGroup::Config gc;
    gc.region_size = region_size;
    gc.mode = mode;
    gc.max_inflight = max_inflight;
    return std::make_unique<NaiveRdmaGroup>(client, reps, gc);
  };
  switch (b) {
    case Backend::kHyperLoop:
      return make_hyperloop(cluster, region_size, max_inflight, 0, replicas);
    case Backend::kNaiveEvent:
      return naive(NaiveRdmaGroup::Mode::kEvent);
    case Backend::kNaivePolling:
      return naive(NaiveRdmaGroup::Mode::kPolling);
    case Backend::kNaiveSharedPolling:
      return naive(NaiveRdmaGroup::Mode::kSharedPolling);
    case Backend::kFanout: {
      FanoutGroup::Config gc;
      gc.region_size = region_size;
      gc.ring_slots = 4 * max_inflight;
      gc.max_inflight = max_inflight;
      return std::make_unique<FanoutGroup>(client, reps, gc);
    }
    case Backend::kTcp: {
      TcpReplicationGroup::Config gc;
      gc.region_size = region_size;
      gc.max_inflight = max_inflight;
      return std::make_unique<TcpReplicationGroup>(client, reps, gc);
    }
    case Backend::kSharded:
      break;
  }
  ADD_FAILURE() << "the sharded backend has no single BackendGroup";
  return nullptr;
}

/// A 3-replica group of backend `b`. The sharded group splits the region
/// into two equal ranges, one HyperLoop chain each.
inline std::unique_ptr<ReplicationGroup> make_group(Backend b,
                                                    Cluster& cluster,
                                                    uint64_t region_size,
                                                    uint32_t max_inflight) {
  if (b != Backend::kSharded) {
    return make_backend(b, cluster, region_size, max_inflight);
  }
  std::vector<std::unique_ptr<ReplicationGroup>> chains;
  chains.push_back(make_hyperloop(cluster, region_size, max_inflight, 0));
  chains.push_back(make_hyperloop(cluster, region_size, max_inflight, 1));
  return std::make_unique<ShardedGroup>(
      std::move(chains), ShardRouter::range(2, region_size / 2));
}

}  // namespace hyperloop::core
