// Shared set-up for tests that run on chains. Test clusters put a chain's
// replicas on servers 0..n-1 and its client on server n.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/hyperloop_group.h"
#include "core/remote_reader.h"
#include "core/server.h"

namespace hyperloop::core {

/// Servers 0..n-1 of `cluster`: a chain's replicas.
inline std::vector<Server*> chain_replicas(Cluster& cluster, size_t n = 3) {
  std::vector<Server*> reps;
  for (size_t i = 0; i < n; ++i) reps.push_back(&cluster.server(i));
  return reps;
}

/// A chain over replicas 0..n-1 whose client is server n.
inline std::unique_ptr<HyperLoopGroup> make_chain(Cluster& cluster,
                                                  HyperLoopGroup::Config cfg,
                                                  size_t n = 3) {
  return std::make_unique<HyperLoopGroup>(cluster.server(n),
                                          chain_replicas(cluster, n), cfg);
}

/// One reader target per replica of `chain`: target i is replica i, read
/// through the chain's own memory region over it.
inline std::vector<RemoteReader::Target> replica_targets(BackendGroup& chain) {
  std::vector<RemoteReader::Target> t;
  for (size_t i = 0; i < chain.group_size(); ++i) {
    t.push_back({&chain.replica_server(i), chain.replica_region_base(i),
                 chain.replica_data_rkey(i)});
  }
  return t;
}

}  // namespace hyperloop::core
