// The simulated RDMA NIC.
//
// Executes send-queue WQEs per QP in order, with three HyperLoop-enabling
// behaviours on top of ordinary verbs:
//
//   1. WAIT (CORE-Direct): a kWait WQE blocks its queue until a target CQ's
//      monotonic completion counter reaches a threshold — no CPU involved.
//   2. Deferred ownership: post_send(..., deferred=true) leaves the WQE's
//      `active` byte clear; the engine stalls at it until a later DMA
//      (typically an inbound RECV scatter) patches the descriptor and sets
//      `active` — the paper's modified-libmlx4 behaviour.
//   3. Durability: inbound 0-byte READs (gFLUSH) write the NIC's pending
//      volatile writes back to the NVM durable domain before responding.
//
// Costs (rdma/nic_costs.h): every WQE charges engine time; packets charge
// per-byte DMA and serialize on Network ports. No CPU scheduler
// interaction ever happens here — that asymmetry versus the Naïve
// baseline is the paper's thesis.
//
// Datapath layout: QPs and CQs live in dense generation-tagged slot
// tables (SlotTable), so per-packet QPN resolution is an array probe, and
// a QPN held by an in-flight packet goes stale when its QP is destroyed —
// the packet is dropped (counted in invalid_qp_drops) instead of hitting
// whichever QP later recycled the slot. The requester retransmit window
// is a per-QP ring ordered by PSN carrying the completion bookkeeping
// inline; WAIT wakeups use an intrusive per-CQ list threaded through the
// QPs; and DMA-patch wakeups scan only the QPs actually stalled at an
// inactive descriptor. Steady-state RX/TX touches no hash map and
// performs no heap allocation (locked in by tests/nic_alloc_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "nvm/nvm_device.h"
#include "rdma/completion_queue.h"
#include "rdma/memory.h"
#include "rdma/network.h"
#include "rdma/nic_costs.h"
#include "rdma/queue_pair.h"
#include "rdma/slot_table.h"
#include "rdma/wqe.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {

class Nic {
 public:
  /// Send-queue slots of a QP created without a size.
  static constexpr uint32_t kDefaultSqSlots = 512;
  /// RC retransmission timeout (go-back-N on loss).
  static constexpr sim::Duration kRetransmitTimeout = sim::usec(100);
  /// Capped exponential backoff: each consecutive no-progress
  /// retransmission round doubles the retry timer, up to this cap.
  static constexpr sim::Duration kMaxRetransmitBackoff = sim::msec(10);
  /// After this many consecutive no-progress rounds the requester stops
  /// re-arming the retry timer (receiver-not-ready parking means the
  /// responder delivers and ACKs once a RECV is posted; a later
  /// post_send or ACK progress re-arms and resets the backoff). This
  /// bounds the event-loop work a stalled peer can generate — without
  /// it an RNR-parked request retransmits forever and run() never
  /// drains.
  static constexpr uint32_t kRnrRetryLimit = 7;

  struct Config {
    /// On-NIC connection-context cache (§7: "the scalability of RDMA NICs
    /// decreases with the number of active write-QPs"). Touching a QP
    /// whose context is not resident fetches it from host memory, costing
    /// kQpCacheMissCost. Residency is tracked by a clock (second-
    /// chance) replacement over `qp_cache_entries` slots with O(1)
    /// lookups via a per-QP backpointer — behaviorally LRU-like without
    /// the per-touch list walk. 0 disables the model (infinite cache).
    uint32_t qp_cache_entries = 0;
  };

  struct Counters {
    uint64_t wqes_executed = 0;
    uint64_t wqes_posted = 0;  ///< send WQEs written into rings
    uint64_t doorbells = 0;    ///< doorbell rings (wqes_posted/doorbells =
                               ///< WQEs per doorbell, the coalescing ratio)
    uint64_t packets_tx = 0;
    uint64_t packets_rx = 0;
    uint64_t bytes_tx = 0;
    uint64_t flushes = 0;
    uint64_t rnr_stalls = 0;
    uint64_t remote_access_errors = 0;
    uint64_t retransmits = 0;         ///< go-back-N resends
    uint64_t duplicates_dropped = 0;  ///< stale PSN requests suppressed
    /// Duplicate READs of non-zero length run again (their responses are
    /// never cached; a 0-byte FLUSH replays its cached response instead).
    uint64_t reads_reexecuted = 0;
    uint64_t out_of_order_dropped = 0;
    uint64_t invalid_qp_drops = 0;  ///< packets for destroyed/unknown QPNs
    uint64_t qp_cache_misses = 0;
    uint64_t qp_cache_hits = 0;
    /// Data-plane payload bytes this NIC memcpy'd: between HostMemory and
    /// packet buffers (WRITE gathers unless zero-copy borrowed, sink
    /// DMA-out writes, response landings; a READ response borrows the
    /// region, so a READ is charged once, at its landing) and within
    /// HostMemory (local DMA copies: gMEMCPY's kLocalCopy and loopback
    /// kWrite). SEND descriptor blobs excluded. PayloadBuf::bytes_copied()
    /// is the global total of packet-buffer copies only (incl. borrow
    /// materializations, excl. local DMA copies).
    uint64_t payload_bytes_copied = 0;
  };

  Nic(sim::EventLoop& loop, Network& net, HostMemory& mem,
      nvm::NvmDevice* nvm, Config cfg);
  Nic(sim::EventLoop& loop, Network& net, HostMemory& mem,
      nvm::NvmDevice* nvm)
      : Nic(loop, net, mem, nvm, Config()) {}
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  NicId id() const { return id_; }
  HostMemory& memory() { return mem_; }
  nvm::NvmDevice* nvm() { return nvm_; }
  MrTable& mr_table() { return mrs_; }
  const Counters& counters() const { return counters_; }
  const Config& config() const { return cfg_; }

  /// Registers [addr, addr+len) for the given access.
  MemoryRegion register_mr(Addr addr, uint64_t len, uint32_t access) {
    return mrs_.register_mr(addr, len, access);
  }

  CompletionQueue* create_cq(size_t capacity = 4096);

  /// Creates a QP whose send queue (sq_slots WQE slots) is carved from
  /// host memory. The ring is *not* registered for remote access here;
  /// HyperLoop group setup registers it explicitly (that registration is
  /// the paper's security-sensitive step).
  QueuePair* create_qp(CompletionQueue* send_cq, CompletionQueue* recv_cq,
                       uint32_t sq_slots = 0);

  /// Creates a self-targeting QP for local DMA (gCAS/gMEMCPY executor).
  QueuePair* create_loopback_qp(CompletionQueue* send_cq,
                                uint32_t sq_slots = 0);

  /// Connects a QP to a remote NIC/QP (reliable connection).
  void connect(QueuePair* qp, NicId remote_nic, uint32_t remote_qpn);

  /// Destroys a QP and retires its QPN (generation bump): packets already
  /// in flight toward it resolve to nothing and are dropped as
  /// invalid_qp_drops, even after the slot is recycled by a later
  /// create_qp. WQEs still executing are dropped when their engine
  /// events fire.
  void destroy_qp(QueuePair* qp);

  /// Destroys a CQ. No QP may be blocked on it or using it.
  void destroy_cq(CompletionQueue* cq);

  /// Posts a send WQE. With `deferred_ownership` the WQE is written with
  /// active=0 and the engine will stall at it until a DMA patch activates
  /// it. Returns the WQE's slot sequence.
  /// Equivalent to stage_send() + ring_doorbell(): one doorbell per WQE.
  uint64_t post_send(QueuePair* qp, Wqe wqe, bool deferred_ownership = false);

  /// Batched-post half of post_send: writes the WQE into the ring without
  /// ringing the doorbell. Stage N WQEs, then ring_doorbell() once — the
  /// engine fetches the whole staged span off a single doorbell instead
  /// of one DMA-fetch wakeup per WQE (the driver-side coalescing real
  /// NICs get from ibv_post_send with a linked WR list).
  uint64_t stage_send(QueuePair* qp, Wqe wqe, bool deferred_ownership = false);

  /// Makes everything staged on `qp` visible to the engine. Counted in
  /// Counters::doorbells; post-only sequences that never doorbell are a
  /// bug (staged WQEs execute only after the next doorbell or WAIT wake).
  void ring_doorbell(QueuePair* qp);

  /// Posts a receive WQE.
  void post_recv(QueuePair* qp, RecvWqe wqe);

  QueuePair* qp(uint32_t qpn) { return qps_.get(qpn); }
  CompletionQueue* cq(uint32_t id) { return cqs_.get(id); }

  /// Context-fetch cost for touching `qpn` (0 on a cache hit); promotes
  /// the context to resident. Exposed for the scalability microbenches —
  /// the data path calls it on every WQE execution and packet receive.
  sim::Duration qp_context_touch(uint32_t qpn);

 private:
  // --- send-side engine ---
  void kick(QueuePair* qp);
  // Examines the head WQE synchronously and schedules its execution at
  // now + lead + kWqeCost (+ context fetch); consumes satisfied WAITs
  // inline. `lead` is the residual occupancy of whatever just finished
  // (payload gather, local DMA), so fusing the step into the caller's
  // event leaves execution timestamps unchanged.
  void engine_step(QueuePair* qp, sim::Duration lead = 0);
  void execute(QueuePair* qp, const Wqe& w);
  void execute_local(QueuePair* qp, const Wqe& w);
  void execute_remote(QueuePair* qp, const Wqe& w);
  void local_completion(QueuePair* qp, const Wqe& w, CqStatus status,
                        uint32_t bytes);

  // --- receive side ---
  void on_packet(Packet p);
  void handle_packet(Packet p);
  // Post-PSN-gate delivery. Called directly when replaying a parked
  // receiver-not-ready packet (whose PSN was already accepted when it
  // first arrived and parked).
  void dispatch_packet(Packet p);
  void responder_send(Packet& p, QueuePair* dst);
  void responder_write(Packet& p);
  void responder_read(Packet& p);
  void responder_cas(Packet& p);
  void requester_response(Packet& p);
  void send_response(const Packet& req, Packet::Type type,
                     PayloadBuf payload, uint8_t status);

  // Wakes queues stalled at an inactive head WQE whose slot bytes were
  // just written by a DMA. Scans only dma_watch_ (the stalled QPs), not
  // the whole QP table.
  void after_dma_write(Addr addr, size_t len);

  // --- RC transport ---
  // Records the outgoing request in the QP's retransmit window (with its
  // completion bookkeeping) and arms the lazy retry timer.
  void track_request(QueuePair* qp, const Packet& p, const PendingWr& wr);
  // Current backoff interval for a QP that has seen `rounds` consecutive
  // no-progress retransmission rounds (capped exponential).
  sim::Duration retry_interval(uint32_t rounds) const;
  // Schedules retry_fire at the QP's current retry_deadline. The timer is
  // lazy: ACK progress just moves the deadline field, and a timer that
  // fires before it re-parks itself instead of being cancelled/re-armed
  // per acknowledged window.
  void arm_retry_timer(QueuePair* qp);
  void retry_fire(uint32_t qpn);
  // Responder-side PSN gate; returns true if the packet should be
  // processed (in order), false if it was handled as dup/out-of-order.
  bool psn_accept(Packet& p);
  void cache_response(QueuePair* qp, uint64_t psn, const Packet& resp);

  // WAIT bookkeeping: intrusive FIFO per CQ, threaded through
  // QueuePair::next_wait_qpn.
  void block_on_cq(QueuePair* qp, uint32_t cq_id);
  void on_cq_advance(uint32_t cq_id);
  void unlink_waiter(QueuePair* qp);

  sim::EventLoop& loop_;
  Network& net_;
  HostMemory& mem_;
  nvm::NvmDevice* nvm_;
  Config cfg_;
  NicId id_;
  MrTable mrs_;
  Counters counters_;

  sim::Time rx_busy_until_ = 0;

  SlotTable<QueuePair> qps_;
  SlotTable<CompletionQueue> cqs_;
  /// QPNs whose engine is stalled at an inactive (deferred-ownership)
  /// head WQE, i.e. the only queues a DMA patch could wake. Entries are
  /// removed lazily (QueuePair::on_dma_watch is authoritative).
  std::vector<uint32_t> dma_watch_;
  std::vector<uint32_t> dma_watch_scratch_;

  /// One resident context in the connection-context cache.
  struct QpCacheSlot {
    uint32_t qpn = 0;
    uint8_t ref = 0;  ///< clock reference bit (set on touch)
    bool live = false;
  };
  std::vector<QpCacheSlot> qp_cache_slots_;  ///< grows up to qp_cache_entries
  uint32_t qp_clock_hand_ = 0;
};

/// Connects `a` and `b` to each other, the two ends of one reliable
/// connection, each through the NIC that created it.
void connect(QueuePair* a, QueuePair* b);

}  // namespace hyperloop::rdma
