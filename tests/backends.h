// One factory for every ReplicationGroup backend, for tests that run the
// same scenario on each of them (parameterize over kAllBackends and name
// the instances with backend_name).
//
// Servers 0..2 of backend_cluster_config() are the replicas and server 3
// is the client. Every server has two NICs, so the 2-shard ShardedGroup
// puts each of its HyperLoop chains on its own NIC.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fanout_group.h"
#include "core/group.h"
#include "core/hyperloop_group.h"
#include "core/naive_group.h"
#include "core/remote_reader.h"
#include "core/server.h"
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
  // Small arenas: memory is zeroed eagerly at set-up, and these tests use
  // a few MB at most.
  c.server.mem_capacity = 32u << 20;
  c.server.nvm_size = 8u << 20;
  return c;
}

/// A 3-replica group of backend `b` over `region_size` bytes whose credit
/// window admits `max_inflight` ops. The sharded group splits the region
/// into two equal ranges, one HyperLoop chain each.
inline std::unique_ptr<ReplicationGroup> make_group(Backend b,
                                                    Cluster& cluster,
                                                    uint64_t region_size,
                                                    uint32_t max_inflight) {
  Server& client = cluster.server(3);
  std::vector<Server*> reps = {&cluster.server(0), &cluster.server(1),
                               &cluster.server(2)};
  auto hyperloop = [&](uint32_t nic) {
    HyperLoopGroup::Config gc;
    gc.region_size = region_size;
    gc.ring_slots = 4 * max_inflight;
    gc.max_inflight = max_inflight;
    gc.nic_index = nic;
    return std::make_unique<HyperLoopGroup>(client, reps, gc);
  };
  auto naive = [&](NaiveRdmaGroup::Mode mode) {
    NaiveRdmaGroup::Config gc;
    gc.region_size = region_size;
    gc.mode = mode;
    gc.max_inflight = max_inflight;
    return std::make_unique<NaiveRdmaGroup>(client, reps, gc);
  };
  switch (b) {
    case Backend::kHyperLoop:
      return hyperloop(0);
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
    case Backend::kSharded: {
      std::vector<std::unique_ptr<ReplicationGroup>> chains;
      chains.push_back(hyperloop(0));
      chains.push_back(hyperloop(1));
      return std::make_unique<ShardedGroup>(
          std::move(chains), ShardRouter::range(2, region_size / 2));
    }
  }
  return nullptr;
}

/// One RemoteReader target per replica of a single-chain group `g` of
/// backend `b`: target i is replica i, read through a read-only memory
/// region registered over its replicated region.
inline std::vector<RemoteReader::Target> replica_read_targets(
    Backend b, ReplicationGroup& g) {
  auto targets = [&](auto& group) {
    std::vector<RemoteReader::Target> t;
    for (size_t i = 0; i < group.group_size(); ++i) {
      Server& s = group.replica_server(i);
      const rdma::Addr base = group.replica_region_base(i);
      t.push_back({&s, base,
                   s.nic().register_mr(base, group.region_size(),
                                       rdma::kRemoteRead).rkey});
    }
    return t;
  };
  switch (b) {
    case Backend::kHyperLoop:
      return targets(static_cast<HyperLoopGroup&>(g));
    case Backend::kNaiveEvent:
    case Backend::kNaivePolling:
    case Backend::kNaiveSharedPolling:
      return targets(static_cast<NaiveRdmaGroup&>(g));
    case Backend::kFanout:
      return targets(static_cast<FanoutGroup&>(g));
    case Backend::kTcp:
      return targets(static_cast<TcpReplicationGroup&>(g));
    case Backend::kSharded:
      break;  // several chains: no single replica i
  }
  ADD_FAILURE() << "no single-chain read targets for this backend";
  return {};
}

}  // namespace hyperloop::core
