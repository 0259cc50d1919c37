#include "core/chain_manager.h"

#include <cassert>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace hyperloop::core {
namespace {

// Heartbeat wire format: [epoch u64][replica index u32].
struct HbMsg {
  uint64_t epoch;
  uint32_t replica;
};

rdma::PayloadBuf encode(const HbMsg& m) {
  rdma::PayloadBuf v;
  v.resize_uninit(sizeof(m));
  std::memcpy(v.data(), &m, sizeof(m));
  return v;
}

HbMsg decode(const rdma::PayloadBuf& v) {
  HbMsg m{};
  assert(v.size() >= sizeof(m));
  std::memcpy(&m, v.data(), sizeof(m));
  return m;
}

}  // namespace

ChainManager::ChainManager(Server& client, std::vector<ReplicaInfo> replicas,
                           uint64_t region_size, Config cfg)
    : client_(client),
      replicas_(std::move(replicas)),
      region_size_(region_size),
      cfg_(cfg) {
  const size_t n = replicas_.size();
  alive_.assign(n, true);
  detected_dead_.assign(n, false);
  missed_.assign(n, 0);
  echoed_.assign(n, true);

  client_pid_ = client_.sched().create_process("chain-mgr");
  // Echo port on the client.
  client_.tcp().listen(
      cfg_.port_base, client_pid_,
      [this](rdma::NicId, uint16_t, rdma::PayloadBuf bytes) {
        const HbMsg m = decode(bytes);
        if (m.replica < echoed_.size()) echoed_[m.replica] = true;
      });

  for (size_t i = 0; i < n; ++i) {
    Server* s = replicas_[i].server;
    replica_pids_.push_back(
        s->sched().create_process(s->name() + "-hb"));
    s->tcp().listen(
        cfg_.port_base, replica_pids_[i],
        [this, i, s](rdma::NicId src, uint16_t, rdma::PayloadBuf bytes) {
          if (!alive_[i]) return;  // dead replicas do not echo
          s->sched().submit(replica_pids_[i], kHeartbeatCpu,
                            [this, i, s, src, b = std::move(bytes)]() mutable {
                              if (!alive_[i]) return;
                              s->tcp().send(replica_pids_[i], src,
                                            cfg_.port_base, std::move(b));
                            });
        });
  }
}

void ChainManager::start() {
  if (started_) return;
  started_ = true;
  heartbeat_tick();
}

void ChainManager::heartbeat_tick() {
  // Evaluate last round's echoes.
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (detected_dead_[i]) continue;
    if (echoed_[i]) {
      missed_[i] = 0;
    } else if (++missed_[i] >= kMissedThreshold) {
      detected_dead_[i] = true;
      ++failures_;
      paused_ = true;  // writes stop until the chain is repaired
      if (on_failure_) on_failure_(i);
    }
    echoed_[i] = false;
  }
  // Send the next round as one coalesced sweep: a single scheduler
  // wakeup pushes every replica's heartbeat (sendmmsg-style), so the
  // steady-state event-loop load is one event per period, not one per
  // replica.
  std::vector<TcpStack::Dgram> sweep;
  sweep.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (detected_dead_[i]) continue;
    sweep.push_back({replicas_[i].server->nic().id(), cfg_.port_base,
                     encode(HbMsg{epoch_, static_cast<uint32_t>(i)})});
  }
  client_.tcp().send_many(client_pid_, std::move(sweep));
  client_.loop().schedule_after(kHeartbeatInterval,
                                [this] { heartbeat_tick(); });
}

void ChainManager::kill_replica(size_t i) {
  assert(i < replicas_.size());
  alive_[i] = false;
  // Power-fail semantics: volatile writes are gone when it comes back.
  replicas_[i].server->nvm().crash();
}

size_t ChainManager::healthy_neighbor(size_t i) const {
  for (size_t d = 1; d < replicas_.size(); ++d) {
    const size_t j = (i + d) % replicas_.size();
    if (alive_[j] && !detected_dead_[j]) return j;
  }
  assert(false && "no healthy replica to recover from");
  return i;
}

void ChainManager::revive_replica(size_t i) {
  assert(i < replicas_.size());
  assert(!alive_[i]);
  const size_t src = healthy_neighbor(i);

  // Catch-up: bulk copy the region image from the healthy neighbor. This
  // is a control-path transfer; we model its duration by region size over
  // the copy bandwidth.
  const auto copy_time = static_cast<sim::Duration>(
      static_cast<double>(region_size_) / kCopyBandwidthBps * 1e9);
  client_.loop().schedule_after(copy_time, [this, i, src] {
    std::vector<uint8_t> image(region_size_);
    replicas_[src].server->mem().read(replicas_[src].region_base,
                                      image.data(), region_size_);
    replicas_[i].server->mem().write(replicas_[i].region_base, image.data(),
                                     region_size_);
    replicas_[i].server->nvm().persist(replicas_[i].region_base,
                                       region_size_);
    alive_[i] = true;
    detected_dead_[i] = false;
    missed_[i] = 0;
    echoed_[i] = true;
    ++epoch_;
    ++recoveries_;
    // Chain repaired: resume writes if every member is healthy.
    bool all = true;
    for (size_t k = 0; k < replicas_.size(); ++k) {
      all = all && alive_[k] && !detected_dead_[k];
    }
    if (all) paused_ = false;
    if (on_recovered_) on_recovered_(i);
  });
}

}  // namespace hyperloop::core
