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

#include "core/group.h"
#include "core/op_window.h"
#include "core/server.h"
#include "rdma/nic.h"

namespace hyperloop::core {

class NaiveRdmaGroup final : public ReplicationGroup {
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

  size_t group_size() const override { return replicas_.size(); }
  uint64_t region_size() const override { return cfg_.region_size; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override;
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) override;
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec_map, CasDone done) override;
  void gflush(Done done) override;
  void stop() override;
  void client_store(uint64_t offset, const void* src, uint32_t len) override;
  void client_load(uint64_t offset, void* dst, uint32_t len) const override;
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override;

  /// CPU seconds consumed by replica i's handler process so far.
  sim::Duration replica_cpu_time(size_t i) const;
  Server& replica_server(size_t i) { return *replicas_.at(i).server; }
  rdma::Addr replica_region_base(size_t i) const {
    return replicas_.at(i).data_base;
  }

  /// rkey of replica i's data region (for one-sided reader QPs).
  uint32_t replica_data_rkey(size_t i) const {
    return replicas_.at(i).data_mr.rkey;
  }

 private:
  static constexpr size_t kMaxGroup = 8;

  // The command forwarded down the chain (and echoed back as the ACK).
  struct Cmd {
    uint8_t type = 0;  // 0 gwrite, 1 gmemcpy, 2 gcas
    uint8_t flush = 0;
    uint16_t pad = 0;
    uint32_t seq = 0;
    uint64_t offset = 0;
    uint64_t dst = 0;
    uint64_t len = 0;
    uint64_t expected = 0;
    uint64_t desired = 0;
    uint64_t exec_mask = 0;
    uint64_t result[kMaxGroup] = {};
  };

  struct Replica {
    Server* server = nullptr;
    rdma::Addr data_base = 0;
    rdma::MemoryRegion data_mr{};
    rdma::QueuePair* qp_prev = nullptr;
    rdma::QueuePair* qp_next = nullptr;
    rdma::CompletionQueue* cq_recv = nullptr;
    rdma::CompletionQueue* cq_send = nullptr;
    rdma::Addr cmd_ring = 0;  ///< RECV landing buffers
    uint32_t cmd_lkey = 0;
    sim::ProcessId pid = 0;
  };

  void setup_replica(size_t i);
  void wire_chain();
  void shared_poll_loop(size_t i);
  void on_replica_notify(size_t i);
  void replica_drain(size_t i);
  sim::Duration message_cost(const Cmd& cmd) const;
  void execute_and_forward(size_t i, Cmd cmd);
  void post_recv_slot(Replica& r, uint64_t slot);
  void on_client_ack();
  void issue_cmd(Cmd cmd, Done done, CasDone cas_done);
  void submit_cmd(const Cmd& cmd, Done done, CasDone cas_done);
  auto issuer() {
    return [this](const Cmd& cmd, Done done, CasDone cas_done) {
      issue_cmd(cmd, std::move(done), std::move(cas_done));
    };
  }

  Server& client_;
  std::vector<Replica> replicas_;
  Config cfg_;

  rdma::QueuePair* qp_down_ = nullptr;
  rdma::QueuePair* qp_up_ = nullptr;
  rdma::CompletionQueue* cq_down_ = nullptr;
  rdma::CompletionQueue* cq_up_ = nullptr;
  rdma::Addr client_region_ = 0;
  rdma::Addr client_cmd_ring_ = 0;  ///< outbound command staging
  rdma::Addr client_ack_ring_ = 0;  ///< inbound ACK landing
  uint32_t client_ack_lkey_ = 0;

  OpWindow<Cmd> window_;  ///< seq is assigned when a command is issued
};

}  // namespace hyperloop::core
