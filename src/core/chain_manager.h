// Chain membership, failure detection and catch-up recovery (§5,
// "RocksDB/MongoDB Recovery"). This is deliberately a *control-path*
// component: HyperLoop accelerates the data path only, and recovery hands
// control back to conventional software — heartbeats over the kernel TCP
// stack, a paused data path, a bulk catch-up copy from a healthy neighbor,
// and an epoch bump (Aguilera-style timeout failure detector [45]).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/server.h"

namespace hyperloop::core {

class ChainManager {
 public:
  static constexpr sim::Duration kHeartbeatInterval = sim::msec(1);
  /// Consecutive missed heartbeats declaring a replica dead.
  static constexpr int kMissedThreshold = 3;
  /// Catch-up copy throughput (bytes/sec) for the recovery transfer.
  static constexpr double kCopyBandwidthBps = 40e9;
  /// CPU cost per heartbeat handled on a replica.
  static constexpr sim::Duration kHeartbeatCpu = sim::usec(2);

  struct Config {
    uint16_t port_base = 7100;
  };

  struct ReplicaInfo {
    Server* server;
    rdma::Addr region_base;
  };

  ChainManager(Server& client, std::vector<ReplicaInfo> replicas,
               uint64_t region_size, Config cfg);

  /// Starts heartbeating. Idempotent.
  void start();

  /// Fault injection: the replica stops answering heartbeats and its NVM
  /// loses volatile (un-flushed) contents, as on a power-fail reboot.
  void kill_replica(size_t i);

  /// The replacement replica comes up empty-ish and asks to rejoin; the
  /// manager runs the catch-up protocol: pause writes, copy the durable
  /// region image from a healthy neighbor, bump the epoch, resume writes.
  void revive_replica(size_t i);

  bool replica_alive(size_t i) const { return alive_.at(i); }
  bool writes_paused() const { return paused_; }
  uint64_t epoch() const { return epoch_; }
  size_t group_size() const { return replicas_.size(); }

  /// Fired (with the replica index) when the detector declares a failure.
  void set_on_failure(std::function<void(size_t)> fn) {
    on_failure_ = std::move(fn);
  }
  /// Fired when a replica finishes catch-up and rejoins.
  void set_on_recovered(std::function<void(size_t)> fn) {
    on_recovered_ = std::move(fn);
  }

  uint64_t failures_detected() const { return failures_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  void heartbeat_tick();
  size_t healthy_neighbor(size_t i) const;

  Server& client_;
  std::vector<ReplicaInfo> replicas_;
  uint64_t region_size_;
  Config cfg_;

  sim::ProcessId client_pid_;
  std::vector<sim::ProcessId> replica_pids_;
  std::vector<bool> alive_;
  std::vector<bool> detected_dead_;
  std::vector<int> missed_;
  std::vector<bool> echoed_;  ///< echo received since last tick
  bool started_ = false;
  bool paused_ = false;
  uint64_t epoch_ = 1;
  uint64_t failures_ = 0;
  uint64_t recoveries_ = 0;
  std::function<void(size_t)> on_failure_;
  std::function<void(size_t)> on_recovered_;
};

}  // namespace hyperloop::core
