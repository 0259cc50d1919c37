// Server and Cluster composition.
//
// A Server bundles everything one machine contributes to the simulation:
// cores (CpuScheduler), DRAM (HostMemory), battery-backed NVM (NvmDevice),
// an RDMA NIC, and a kernel TCP stack. A Cluster owns the event loop, the
// fabric, and a set of servers — the unit every test, example, and
// benchmark starts from.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tcp_stack.h"
#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/background_load.h"
#include "sim/cpu_scheduler.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace hyperloop::core {

struct ServerConfig {
  std::string name = "server";
  sim::CpuScheduler::Config cpu{};
  size_t mem_capacity = 256u << 20;  ///< host DRAM arena
  size_t nvm_size = 64u << 20;       ///< battery-backed region within it
  rdma::Nic::Config nic{};
  /// Simulated NICs on this machine (sharded deployments place each
  /// shard's QPs on a distinct NIC). NIC 0 carries the TCP stack.
  uint32_t num_nics = 1;
};

/// One machine: CPU + memory + NVM + RNIC + TCP.
class Server {
 public:
  Server(sim::EventLoop& loop, rdma::Network& net, ServerConfig cfg);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return cfg_.name; }
  sim::EventLoop& loop() { return loop_; }
  sim::CpuScheduler& sched() { return sched_; }
  rdma::HostMemory& mem() { return mem_; }
  nvm::NvmDevice& nvm() { return nvm_; }
  rdma::Nic& nic() { return nic_; }
  /// NIC `i` of num_nics (wraps, so shard s can always ask for NIC s).
  rdma::Nic& nic(size_t i) {
    const size_t n = 1 + extra_nics_.size();
    i %= n;
    return i == 0 ? nic_ : *extra_nics_[i - 1];
  }
  size_t num_nics() const { return 1 + extra_nics_.size(); }
  TcpStack& tcp() { return tcp_; }

  /// Starts `tenants` background tenant processes on this server.
  void add_background_load(int tenants, sim::Rng rng,
                           sim::BackgroundLoad::Config cfg = {});

 private:
  ServerConfig cfg_;
  sim::EventLoop& loop_;
  sim::CpuScheduler sched_;
  rdma::HostMemory mem_;
  nvm::NvmDevice nvm_;
  rdma::Nic nic_;
  std::vector<std::unique_ptr<rdma::Nic>> extra_nics_;
  TcpStack tcp_;
  std::vector<std::unique_ptr<sim::BackgroundLoad>> loads_;
};

/// The whole testbed: event loop + fabric + servers.
class Cluster {
 public:
  struct Config {
    int num_servers = 3;
    ServerConfig server{};
    rdma::Network::Config network{};
    uint64_t seed = 42;
  };

  explicit Cluster(Config cfg);

  sim::EventLoop& loop() { return loop_; }
  rdma::Network& net() { return net_; }
  Server& server(size_t i) { return *servers_.at(i); }
  size_t size() const { return servers_.size(); }

  /// Adds one more server (e.g. a dedicated client machine).
  Server& add_server(ServerConfig cfg);

  /// A fresh deterministic RNG stream derived from the cluster seed.
  sim::Rng fork_rng() { return rng_.fork(); }

 private:
  sim::EventLoop loop_;
  rdma::Network net_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Server>> servers_;
};

}  // namespace hyperloop::core
