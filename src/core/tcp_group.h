// Kernel-TCP replication backend ("native replication" in §6.2).
//
// Same ReplicationGroup API, implemented the way classic primary-backup
// storage systems do it (Fig 1): every hop is an RPC over the OS network
// stack. Data rides inside the message, so each hop pays send+recv CPU
// proportional to the payload, plus the replica's execution work (memcpy/
// CAS/persist) — all of it on schedulable processes that queue behind
// co-located tenants. This backend is the baseline for the MongoDB
// experiments (Fig 2, Fig 12).
//
// Each message's CPU bursts run on whichever core is free, so a short
// message can finish its bursts ahead of a longer one sent before it. A
// TCP connection still delivers in order: each replica applies commands,
// and the client completes them, in issue order (the command's seq),
// which keeps the ordering contract of group.h. A command whose bursts
// finished early waits for the ones before it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend_group.h"
#include "core/op_window.h"

namespace hyperloop::core {

class TcpReplicationGroup final : public BackendGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    uint32_t max_inflight = 64;
    /// Listening port; 0 = auto-assign a unique port (required when many
    /// groups share servers, e.g. the multi-tenant benchmarks).
    uint16_t port = 0;
    /// CPU to parse a command and run the replication logic on a replica.
    sim::Duration per_message_cpu = sim::usec(3);
  };

  TcpReplicationGroup(Server& client, std::vector<Server*> replicas,
                      Config cfg);
  ~TcpReplicationGroup() override;

 private:
  /// Messages of one receiver, handled in seq order. A message that
  /// arrives ahead of `next` is held in slot seq & order_mask_ (sized
  /// once: at most max_inflight seqs are live).
  struct InOrder {
    uint32_t next = 0;
    std::vector<rdma::PayloadBuf> held;
  };
  /// Runs handle(msg), then handle() on each held successor, once every
  /// earlier seq has been handled; until then holds `msg`.
  template <typename Handle>
  void in_order(InOrder& o, rdma::PayloadBuf msg, Handle&& handle);

  void on_replica_message(size_t i, rdma::PayloadBuf msg);
  void apply_and_forward(size_t i, rdma::PayloadBuf msg);
  void forward(size_t i, rdma::PayloadBuf msg);
  void on_client_ack(rdma::PayloadBuf msg);
  void submit(const GroupOp& op, Done done, CasDone cas_done) override;
  /// The credit window, and the messages held for their turn. Listeners
  /// stay registered; every handler early-outs on stopped_.
  uint64_t abort_pending() override;
  void issue(const GroupOp& op, Done done, CasDone cas_done);
  auto issuer() {
    return [this](const GroupOp& op, Done done, CasDone cas_done) {
      issue(op, std::move(done), std::move(cas_done));
    };
  }

  Config cfg_;
  sim::ProcessId client_pid_;

  OpWindow<GroupOp> window_;  ///< seq is assigned when a command is issued
  uint32_t order_mask_ = 0;
  std::vector<InOrder> replica_order_;  ///< commands, per replica
  InOrder ack_order_;                   ///< ACKs at the client
};

}  // namespace hyperloop::core
