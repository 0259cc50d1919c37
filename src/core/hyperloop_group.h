// HyperLoop: group-based NIC-offloaded replicated memory operations (§4).
//
// Chain topology: client -> R0 -> R1 -> ... -> R{G-1} -> client.
//
// Per replica and per primitive, the group pre-posts rings of WQE chains
// whose descriptors are *patched remotely* by the client:
//
//   gWRITE   qp_next: [WAIT(recv_prev >= k+1)] [3 patched WQEs]
//   gWRITEV  qp_next: [WAIT(recv_prev >= k+1)] [10 patched WQEs]
//   gMEMCPY  qp_loop: [WAIT(recv_prev >= k+1)] [COPY] [FLUSH]
//            qp_next: [WAIT(loop_cq  >= 2(k+1))] [SEND]
//   gCAS     qp_loop: [WAIT(recv_prev >= k+1)] [CAS]
//            qp_next: [WAIT(loop_cq  >= k+1)]  [SEND]
//
// The WQEs behind each WAIT are posted with *deferred ownership*
// (active=0). The matching pre-posted RECV on qp_prev scatters the inbound
// metadata SEND byte-for-byte onto those descriptors — rewriting
// addresses, lengths and opcodes (FLUSH->NOP when no durability is
// requested; CAS->NOP per the execute map) and setting active=1. The recv
// completion then satisfies the WAIT and the NIC executes the patched
// chain with no replica CPU anywhere on the path.
//
// A write slot holds one WRITE per extent it can carry (1 or 8) plus two.
// For a batch of k extents the client patches a forwarding hop's slot as
//
//   [WRITE x k] [FLUSH, if requested] [SEND] [NOP x the rest]
//
// and the last hop's as [WRITE_IMM] [NOP x the rest]. The NIC executes a
// queue in order, so the SEND that triggers the next hop goes out right
// behind the hop's last live WQE; the unused WQEs run after it.
//
// Replica CPUs only run a periodic refill task (off the critical path)
// that re-arms consumed ring slots, exactly as §5.1 describes.
//
// The gWRITE slot is the one-WRITE form of the gWRITEV slot, so one
// staging path serves both: a gWRITE is a one-extent batch. Each keeps
// its own ring all the same, because a chain slot has a fixed WQE count
// (WAIT thresholds and refill accounting depend on it): a shared ring
// would bill every gWRITE the NOP cost of seven unused WRITEs.
//
// Client-side bookkeeping is allocation-free in steady state: each
// primitive ring has its own OpWindow (core/op_window.h) holding its
// in-flight ops and the ops parked for a credit, and patch descriptors
// are staged straight into the metadata ring slot.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend_group.h"
#include "core/op_window.h"
#include "rdma/nic.h"

namespace hyperloop::core {

class HyperLoopGroup final : public BackendGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    /// Pre-posted chain slots per primitive per replica.
    uint32_t ring_slots = 512;
    /// Max client-side in-flight ops per primitive.
    uint32_t max_inflight = 32;
    /// Replica refill cadence (off critical path).
    sim::Duration refill_period = sim::usec(100);
    /// If false, replicas re-arm rings with zero CPU (idealized NIC
    /// self-refill; used by ablation benchmarks).
    bool refill_via_cpu = true;
    /// Which NIC (per server, wrapping) carries this group's QPs.
    /// Sharded deployments give shard s nic_index = s so chains land on
    /// distinct simulated NICs (ServerConfig::num_nics).
    uint32_t nic_index = 0;

    /// Aborts with a diagnostic unless max_inflight >= 1: the credit
    /// window must admit at least one op (the constructor calls this). A
    /// window as wide as the rings or wider is correct: a slot's
    /// descriptors are patched only through its RECV, which the refill
    /// posts after the slot's previous chain has finished.
    void validate() const;
  };

  struct OpCounters {
    uint64_t gwrites = 0;
    uint64_t gwritevs = 0;         ///< batched submissions (chain traversals)
    uint64_t gwritev_extents = 0;  ///< extents carried by those batches
    uint64_t gmemcpys = 0;
    uint64_t gcas = 0;
    uint64_t gflushes = 0;
  };

  HyperLoopGroup(Server& client, std::vector<Server*> replicas, Config cfg);
  ~HyperLoopGroup() override;

  void gwritev(const ExtentVec& extents, bool flush, Done done) override;
  void gflush(Done done) override;

  const OpCounters& counters() const { return counters_; }

 private:
  // A GroupOp's kind names its ring; gWRITEV batches have their own.
  enum class Prim : uint8_t {
    kWrite = static_cast<uint8_t>(GroupOp::Kind::kWrite),
    kMemcpy = static_cast<uint8_t>(GroupOp::Kind::kMemcpy),
    kCas = static_cast<uint8_t>(GroupOp::Kind::kCas),
    kWriteV,
  };
  static constexpr int kNumPrims = 4;
  static constexpr uint32_t kDescBytes = sizeof(rdma::WqeDescriptor);
  static constexpr uint32_t kMaxExtents =
      static_cast<uint32_t>(ExtentVec::kCapacity);

  // One primitive's state on one replica.
  struct ReplicaChain {
    rdma::QueuePair* qp_prev = nullptr;
    rdma::QueuePair* qp_next = nullptr;
    rdma::QueuePair* qp_loop = nullptr;
    rdma::CompletionQueue* cq_recv_prev = nullptr;
    rdma::CompletionQueue* cq_send_next = nullptr;
    rdma::CompletionQueue* cq_loop = nullptr;
    rdma::Addr staging_base = 0;
    uint32_t staging_slot = 0;   ///< bytes per staging ring slot
    uint32_t staging_len = 0;    ///< forwarded metadata bytes at this hop
    rdma::Addr result_base = 0;  ///< gCAS result-map ring (8*G per slot)
    uint32_t ring_lkey = 0;      ///< covers WQE rings + staging + result
    uint64_t next_rearm = 0;     ///< next absolute slot seq to re-arm
  };

  // One replica's rings, one per primitive.
  struct ReplicaRings {
    ReplicaChain chain[kNumPrims];
  };

  /// One call's parameters, kept by value while the op is parked for a
  /// credit. Write rings carry the extents (a gWRITE has one).
  struct Args {
    GroupOp op;
    ExtentVec extents;
  };

  // Client-side per-primitive state.
  struct ClientChain {
    rdma::QueuePair* qp_down = nullptr;
    rdma::QueuePair* qp_up = nullptr;
    rdma::CompletionQueue* cq_up = nullptr;
    rdma::Addr staging_base = 0;  ///< metadata build ring
    uint32_t staging_slot = 0;
    rdma::Addr ack_base = 0;  ///< ack / result-map landing ring
    rdma::MemoryRegion ack_mr{};
    OpWindow<Args> window;
  };

  static bool is_write(Prim p) {
    return p == Prim::kWrite || p == Prim::kWriteV;
  }
  /// Extents a slot of a write ring can carry, one WRITE each.
  static uint32_t write_wqes(Prim p) {
    return p == Prim::kWriteV ? kMaxExtents : 1;
  }
  // WQEs per ring slot on each queue, by primitive. A write slot is a
  // WAIT and room for write_wqes WRITEs, a FLUSH and a SEND.
  static uint32_t next_wqes(Prim p) {
    return is_write(p) ? write_wqes(p) + 3 : 2;
  }
  static uint32_t loop_wqes(Prim p) {
    return p == Prim::kMemcpy ? 3 : (p == Prim::kCas ? 2 : 0);
  }
  /// Completions accumulating on cq_send_next per finished slot.
  static uint32_t next_completions(Prim p) {
    return is_write(p) ? write_wqes(p) + 2 : 1;
  }
  /// Patch descriptors per replica per op.
  static uint32_t desc_count(Prim p) {
    if (is_write(p)) return write_wqes(p) + 2;
    return p == Prim::kCas ? 2 : 3;
  }
  uint32_t result_bytes() const {
    return static_cast<uint32_t>(8 * replicas_.size());
  }

  void setup_replica(size_t i);
  void setup_client_chain(Prim p);
  void rearm_slot(size_t replica, Prim p, uint64_t seq);
  void refill_tick(size_t replica);
  uint32_t do_refill(size_t replica);
  void start_refill(size_t replica);

  /// Op `seq`'s slot of primitive `p`'s client metadata ring, and of its
  /// ack / result-map landing ring.
  rdma::Addr client_slot(Prim p, uint64_t seq) const;
  rdma::Addr ack_slot(Prim p, uint64_t seq) const;
  /// The descriptor that ends replica i's part of op `seq`: the SEND that
  /// triggers hop i + 1, or the last hop's WRITE_WITH_IMM ACK.
  rdma::WqeDescriptor hop_trigger(Prim p, size_t i, uint64_t seq) const;

  // Stage the patch descriptors for op `seq` directly into the client's
  // metadata staging ring slot (no temporary buffer); return blob bytes.
  uint32_t stage_write_blob(Prim p, uint64_t seq, const ExtentVec& extents,
                            bool flush);
  uint32_t stage_gmemcpy_blob(uint64_t seq, const GroupOp& op);
  uint32_t stage_gcas_blob(uint64_t seq, const GroupOp& op);

  void submit(const GroupOp& op, Done done, CasDone cas_done) override;
  uint64_t abort_pending() override;
  /// Hands the op to primitive `p`'s window, which issues or parks it.
  void submit_to(Prim p, const Args& args, Done done, CasDone cas_done);
  void issue(Prim p, const Args& args, Done done, CasDone cas_done);
  auto issuer(Prim p) {
    return [this, p](const Args& args, Done done, CasDone cas_done) {
      issue(p, args, std::move(done), std::move(cas_done));
    };
  }
  /// Stages the metadata SEND on qp_down without ringing the doorbell —
  /// issue() stages all of an op's WQEs and doorbells once.
  void stage_meta_send(Prim p, uint64_t seq, uint32_t blob_len);
  void on_ack_cqe(Prim p);

  std::vector<ReplicaRings> rings_;
  Config cfg_;
  ClientChain client_chain_[kNumPrims];
  rdma::Addr client_zeros_ = 0;  ///< gCAS initial (zero) result map source
  std::vector<uint64_t> cas_scratch_;  ///< gCAS result-map read buffer
  OpCounters counters_;
};

}  // namespace hyperloop::core
