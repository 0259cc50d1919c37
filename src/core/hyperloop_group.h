// HyperLoop: group-based NIC-offloaded replicated memory operations (§4).
//
// Chain topology: client -> R0 -> R1 -> ... -> R{G-1} -> client.
//
// Per replica and per primitive, the group pre-posts rings of WQE chains
// whose descriptors are *patched remotely* by the client:
//
//   gWRITE   qp_next: [WAIT(recv_prev >= k+1)] [WRITE] [FLUSH] [SEND]
//   gMEMCPY  qp_loop: [WAIT(recv_prev >= k+1)] [COPY] [FLUSH]
//            qp_next: [WAIT(loop_cq  >= 2(k+1))] [SEND]
//   gCAS     qp_loop: [WAIT(recv_prev >= k+1)] [CAS]
//            qp_next: [WAIT(loop_cq  >= k+1)]  [SEND]
//
// The bracketed WRITE/FLUSH/SEND/COPY/CAS WQEs are posted with *deferred
// ownership* (active=0). The matching pre-posted RECV on qp_prev scatters
// the inbound metadata SEND byte-for-byte onto those descriptors —
// rewriting addresses, lengths and opcodes (FLUSH->NOP when no durability
// is requested; CAS->NOP per the execute map) and setting active=1. The
// recv completion then satisfies the WAIT and the NIC executes the patched
// chain with no replica CPU anywhere on the path.
//
// Replica CPUs only run a periodic refill task (off the critical path)
// that re-arms consumed ring slots, exactly as §5.1 describes.
//
// Client-side bookkeeping is allocation-free in steady state: each
// primitive ring has its own OpWindow (core/op_window.h) holding its
// in-flight ops and the ops parked for a credit, and patch descriptors
// are staged straight into the metadata ring slot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/op_window.h"
#include "core/server.h"
#include "rdma/nic.h"

namespace hyperloop::core {

class HyperLoopGroup final : public ReplicationGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    /// Pre-posted chain slots per primitive per replica.
    uint32_t ring_slots = 512;
    /// Max client-side in-flight ops per primitive (must be <= ring/2).
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

    /// Enforces the documented invariants (constructor calls this; it
    /// aborts with a diagnostic rather than silently mis-running):
    ///   - max_inflight >= 1: the credit window must admit at least one op.
    ///   - max_inflight <= ring_slots / 2: the client may only wrap
    ///     halfway around the pre-posted replica rings; the other half is
    ///     the re-arm headroom the off-path refill task needs. Violating
    ///     this lets a fast client patch a slot whose previous chain has
    ///     not been re-armed, corrupting deferred descriptors in flight.
    void validate() const;
  };

  struct OpCounters {
    uint64_t gwrites = 0;
    uint64_t gwritevs = 0;         ///< batched submissions (chain traversals)
    uint64_t gwritev_extents = 0;  ///< extents carried by those batches
    uint64_t gmemcpys = 0;
    uint64_t gcas = 0;
    uint64_t gflushes = 0;
    uint64_t bytes_replicated = 0;
  };

  HyperLoopGroup(Server& client, std::vector<Server*> replicas, Config cfg);
  ~HyperLoopGroup() override;

  // ReplicationGroup API --------------------------------------------------
  size_t group_size() const override { return replicas_.size(); }
  uint64_t region_size() const override { return cfg_.region_size; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override;
  void gwritev(const ExtentVec& extents, bool flush, Done done) override;
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

  const OpCounters& counters() const { return counters_; }

  /// Replica-side data region base (tests use this with NvmDevice to
  /// check durability).
  rdma::Addr replica_region_base(size_t i) const;

  /// rkey of replica i's data region (for one-sided reader QPs).
  uint32_t replica_data_rkey(size_t i) const {
    return replicas_.at(i).data_mr.rkey;
  }
  Server& replica_server(size_t i) { return *replicas_[i].server; }
  Server& client_server() { return client_; }

  /// Total receiver-not-ready stalls across all replica QPs — should stay
  /// 0 when refill keeps up (asserted by tests, reported by benches).
  uint64_t total_rnr_stalls() const;

  /// CPU consumed by replica i on behalf of this group (the periodic ring
  /// refill only — nothing on the critical path).
  sim::Duration replica_cpu_time(size_t i) const {
    const Replica& r = replicas_.at(i);
    return cfg_.refill_via_cpu ? r.server->sched().stats(r.refill_pid).cpu_time
                               : sim::Duration{0};
  }

 private:
  /// kWriteV gets its own ring rather than widening kWrite's: a chain
  /// slot must have a fixed WQE count (WAIT thresholds and refill
  /// accounting depend on it), so a shared ring would bill every single
  /// gWRITE the NOP cost of kMaxExtents unused WRITE slots.
  enum class Prim : uint8_t { kWrite = 0, kMemcpy = 1, kCas = 2, kWriteV = 3 };
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

  // One replica's full state.
  struct Replica {
    Server* server = nullptr;
    rdma::Addr data_base = 0;
    rdma::MemoryRegion data_mr{};
    ReplicaChain chain[kNumPrims];
    sim::ProcessId refill_pid = 0;
  };

  /// One primitive call's parameters, kept by value while the op is
  /// parked for a credit and issued by primitive when one frees up.
  struct Args {
    uint64_t offset = 0;  ///< offset / gMEMCPY source
    uint64_t dst = 0;     ///< gMEMCPY destination
    uint64_t expected = 0;
    uint64_t desired = 0;
    uint32_t len = 0;
    bool flush = false;
    ExecMap exec;
    ExtentVec extents;  ///< gWRITEV batch
  };

  // Client-side per-primitive state.
  struct ClientChain {
    rdma::QueuePair* qp_down = nullptr;
    rdma::QueuePair* qp_up = nullptr;
    rdma::CompletionQueue* cq_down = nullptr;
    rdma::CompletionQueue* cq_up = nullptr;
    rdma::Addr staging_base = 0;  ///< metadata build ring
    uint32_t staging_slot = 0;
    rdma::Addr ack_base = 0;  ///< ack / result-map landing ring
    rdma::MemoryRegion ack_mr{};
    OpWindow<Args> window;
  };

  // WQEs per ring slot on each queue, by primitive. A kWriteV slot is
  // [WAIT][WRITE x kMaxExtents][FLUSH][SEND]; unused WRITEs patch to NOP.
  static uint32_t next_wqes(Prim p) {
    if (p == Prim::kWriteV) return kMaxExtents + 3;
    return p == Prim::kWrite ? 4 : 2;
  }
  static uint32_t loop_wqes(Prim p) {
    return p == Prim::kMemcpy ? 3 : (p == Prim::kCas ? 2 : 0);
  }
  /// Completions accumulating on cq_send_next per finished slot.
  static uint32_t next_completions(Prim p) {
    if (p == Prim::kWriteV) return kMaxExtents + 2;
    return p == Prim::kWrite ? 3 : 1;
  }
  /// Completions accumulating on cq_loop per finished slot.
  static uint32_t loop_completions(Prim p) { return p == Prim::kMemcpy ? 2 : 1; }

  uint32_t desc_count(Prim p) const {
    if (p == Prim::kWriteV) return kMaxExtents + 2;
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

  // Stage the patch descriptors for op `seq` directly into the client's
  // metadata staging ring slot (no temporary buffer); returns blob bytes.
  uint32_t stage_gwrite_blob(uint64_t seq, uint64_t offset, uint32_t len,
                             bool flush);
  uint32_t stage_gwritev_blob(uint64_t seq, const ExtentVec& extents,
                              bool flush);
  uint32_t stage_gmemcpy_blob(uint64_t seq, uint64_t src, uint64_t dst,
                              uint32_t len, bool flush);
  uint32_t stage_gcas_blob(uint64_t seq, uint64_t offset, uint64_t expected,
                           uint64_t desired, ExecMap exec);

  /// Hands the op to primitive `p`'s window, which issues or parks it.
  void submit(Prim p, const Args& args, Done done, CasDone cas_done);
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

  rdma::WqeDescriptor nop_desc() const;

  Server& client_;
  std::vector<Replica> replicas_;
  Config cfg_;
  ClientChain client_chain_[kNumPrims];
  rdma::Addr client_region_ = 0;
  rdma::Addr client_zeros_ = 0;  ///< gCAS initial (zero) result map source
  std::vector<uint64_t> cas_scratch_;  ///< gCAS result-map read buffer
  OpCounters counters_;
};

}  // namespace hyperloop::core
