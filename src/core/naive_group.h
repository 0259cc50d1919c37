// Naïve-RDMA baseline (§6, "Naïve-RDMA"): the same group-primitive API as
// HyperLoop, implemented the way state-of-the-art RDMA storage systems do
// it — with the *replica CPU* on the critical path of every hop.
//
// Chain: client -> R0 -> ... -> R{G-1} -> client. The client WRITEs data
// one-sided into R0 and SENDs a command. Each replica's process must then
// be scheduled onto a core to: poll/receive the completion, parse the
// command, execute it (CPU memcpy / CAS / persist), post the WRITE+SEND
// pair to the next replica, and re-arm its receive ring. Under multi-tenant
// CPU load every one of those steps queues behind busy cores, which is
// exactly the tail the paper measures.
//
// Three wakeup modes, as in Fig. 11 / Fig. 9:
//   kEvent         - completion-channel wakeup through the shared run queue.
//   kPolling       - the replica pins a dedicated core and busy-polls its
//                    CQ (best case; only viable when cores are plentiful).
//   kSharedPolling - the replica busy-polls *without* a reserved core: its
//                    poll loop spins through the shared run queue like any
//                    other tenant (the only option when cores are
//                    oversubscribed 10:1). This burns CPU, deepens
//                    everyone's queues, and still waits a scheduling
//                    round per message — the §6.2 observation that
//                    polling can be *worse* than events under
//                    multi-tenancy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend_group.h"
#include "core/op_window.h"
#include "rdma/nic.h"

namespace hyperloop::core {

class NaiveRdmaGroup final : public BackendGroup {
 public:
  enum class Mode { kEvent, kPolling, kSharedPolling };

  struct Config {
    uint64_t region_size = 4u << 20;
    Mode mode = Mode::kEvent;
    uint32_t max_inflight = 32;
    uint32_t recv_slots = 256;
  };

  NaiveRdmaGroup(Server& client, std::vector<Server*> replicas, Config cfg);
  ~NaiveRdmaGroup() override;

 private:
  // One replica's forwarding state: its QPs and command receive ring.
  struct Hop {
    rdma::QueuePair* qp_prev = nullptr;
    rdma::QueuePair* qp_next = nullptr;
    rdma::CompletionQueue* cq_recv = nullptr;
    rdma::Addr cmd_ring = 0;  ///< RECV landing buffers
    uint32_t cmd_lkey = 0;
  };

  void setup_replica(size_t i);
  void wire_chain();
  void shared_poll_loop(size_t i);
  void on_replica_notify(size_t i);
  void replica_drain(size_t i);
  sim::Duration message_cost(const ForwardedCmd& cmd) const;
  void execute_and_forward(size_t i, ForwardedCmd cmd);
  void post_recv_slot(size_t i, uint64_t slot);
  void on_client_ack();
  void submit(const GroupOp& op, Done done, CasDone cas_done) override;
  uint64_t abort_pending() override;
  void issue(const GroupOp& op, Done done, CasDone cas_done);
  auto issuer() {
    return [this](const GroupOp& op, Done done, CasDone cas_done) {
      issue(op, std::move(done), std::move(cas_done));
    };
  }

  std::vector<Hop> hops_;
  Config cfg_;

  rdma::QueuePair* qp_down_ = nullptr;
  rdma::QueuePair* qp_up_ = nullptr;
  rdma::CompletionQueue* cq_up_ = nullptr;
  rdma::Addr client_cmd_ring_ = 0;  ///< outbound command staging
  rdma::Addr client_ack_ring_ = 0;  ///< inbound ACK landing
  uint32_t client_ack_lkey_ = 0;

  OpWindow<GroupOp> window_;  ///< seq is assigned when a command is issued
};

}  // namespace hyperloop::core
