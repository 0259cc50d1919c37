// Fan-out NIC-offloaded replication (§7, "Supporting other replication
// protocols"): the FaRM-style topology where a single primary coordinates
// K backups, with the coordination offloaded from the primary's CPU to
// the primary's NIC.
//
//   client ──> primary ──> backup 1..K   (parallel, not a chain)
//
// Per operation slot the primary pre-posts, for *each* backup QP, a
// [WAIT(recv_cq >= k+1)] [WRITE] [FLUSH] [SEND] chain — all K WAITs watch
// the same receive CQ, so one inbound metadata SEND from the client
// triggers K parallel forwards. Each backup pre-posts a [WAIT][op][ACK]
// chain that acknowledges the *client* directly with WRITE_WITH_IMM; the
// client completes an operation once it has collected all K backup ACKs
// (the primary's own copy is handled by the client's one-sided
// WRITE/FLUSH/CAS, and by a primary loopback chain for gMEMCPY).
//
// Trade-off vs the chain (paper §7): latency is one NIC hop shorter and
// independent of K at the tail, but the primary's NIC carries K times the
// write traffic and holds K active write QPs per group — chain replication
// load-balances this, which is why the paper prefers it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend_group.h"
#include "core/op_window.h"
#include "rdma/nic.h"

namespace hyperloop::core {

class FanoutGroup final : public BackendGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    uint32_t ring_slots = 512;
    uint32_t max_inflight = 32;
  };

  /// Replica 0 of `replicas` acts as the primary; the rest are backups.
  FanoutGroup(Server& client, std::vector<Server*> replicas, Config cfg);
  ~FanoutGroup() override;

 private:
  static constexpr uint32_t kDescBytes = sizeof(rdma::WqeDescriptor);

  // Replica 0's datapath state.
  struct Primary {
    rdma::QueuePair* qp_prev = nullptr;  ///< from the client
    rdma::CompletionQueue* cq_recv = nullptr;
    /// One forwarding QP per backup, plus a loopback executor.
    std::vector<rdma::QueuePair*> qp_out;
    std::vector<rdma::CompletionQueue*> cq_out;
    rdma::QueuePair* qp_loop = nullptr;
    rdma::CompletionQueue* cq_loop = nullptr;
    rdma::Addr staging_base = 0;  ///< per-backup forward metadata ring
    uint32_t staging_slot = 0;
    uint32_t ring_lkey = 0;
    uint64_t next_rearm = 0;
  };

  // Backup b's (replica b + 1's) datapath state.
  struct Backup {
    rdma::QueuePair* qp_prev = nullptr;  ///< from the primary
    rdma::CompletionQueue* cq_recv = nullptr;
    rdma::QueuePair* qp_ack = nullptr;  ///< to the client
    rdma::CompletionQueue* cq_ack = nullptr;
    rdma::QueuePair* qp_loop = nullptr;
    rdma::CompletionQueue* cq_loop = nullptr;
    rdma::Addr result_base = 0;  ///< local CAS result ring (8B slots)
    uint32_t ring_lkey = 0;
    uint64_t next_rearm = 0;
  };

  void setup_primary();
  void setup_backup(size_t b);
  void wire();
  void rearm_primary_slot(uint64_t seq);
  void rearm_backup_slot(size_t b, uint64_t seq);
  void refill_tick_primary();
  void refill_tick_backup(size_t b);

  // Builds the metadata blob the client sends to the primary. Layout:
  //   [primary loopback op desc][primary loopback flush desc]
  //   [per backup: fwd WRITE desc][fwd FLUSH desc][fwd SEND desc]
  // Each forwarded SEND carries that backup's own 3-desc blob
  // ([op][flush][ack]) staged by the primary's RECV scatter.
  /// Fills and returns blob_scratch_ (valid until the next call) — the
  /// blob is memcpy'd into staging memory immediately, so per-op vector
  /// allocations on this hot path would be pure churn.
  const std::vector<uint8_t>& build_blob(uint64_t seq, const GroupOp& op);
  rdma::WqeDescriptor backup_ack_desc(size_t b, uint64_t seq,
                                      const GroupOp& op);
  /// Bytes per op of the client's ack ring: the primary's 8-byte gCAS
  /// result, then each backup's.
  uint32_t ack_stride() const {
    return static_cast<uint32_t>(8 * (1 + backups_.size()));
  }
  /// Op `seq`'s slot of the client's ack ring.
  rdma::Addr ack_slot(uint64_t seq) const {
    return ack_base_ + (seq % (cfg_.max_inflight * 2)) * ack_stride();
  }
  void submit(const GroupOp& op, Done done, CasDone cas_done) override;
  uint64_t abort_pending() override;
  void issue(const GroupOp& op, Done done, CasDone cas_done);
  auto issuer() {
    return [this](const GroupOp& op, Done done, CasDone cas_done) {
      issue(op, std::move(done), std::move(cas_done));
    };
  }
  /// Counts one ACK (a backup's, the primary's, or the client's own CAS
  /// on the primary) toward op `seq`.
  void count_ack(uint32_t seq);
  void on_ack_cqe();

  Primary primary_;
  std::vector<Backup> backups_;
  Config cfg_;

  // Client side.
  rdma::QueuePair* qp_down_ = nullptr;  ///< to the primary
  rdma::CompletionQueue* cq_down_ = nullptr;
  rdma::CompletionQueue* cq_up_ = nullptr;  ///< every ACK sink's RECVs
  rdma::Addr client_staging_ = 0;
  uint32_t client_staging_slot_ = 0;
  rdma::Addr ack_base_ = 0;
  rdma::MemoryRegion ack_mr_{};
  /// Per-source ack streams are FIFO, but an op completes on the last of
  /// its sources, so seqs can retire a little out of order relative to
  /// the client-CAS stream: the table gets 4x the credit window.
  OpWindow<GroupOp> window_;
  std::vector<uint8_t> blob_scratch_;  ///< reused by build_blob per issue()
  std::vector<uint8_t> zero_scratch_;  ///< reused ack-slot clear (gCAS)
  std::vector<uint64_t> cas_scratch_;  ///< gCAS result-map read buffer
};

}  // namespace hyperloop::core
