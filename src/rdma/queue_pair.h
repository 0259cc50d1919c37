// Queue pair state.
//
// The send queue is a ring of `Wqe` slots that lives in registered host
// memory (allocated from HostMemory at creation), so remote NICs can patch
// descriptors via DMA — the enabling mechanism for HyperLoop's remote
// work-request manipulation. Receive WQEs are NIC-side (only send queues
// need to be remotely writable).
//
// Datapath notes: all per-QP transport queues are flat rings
// (sim::Ring) so steady-state traffic never touches the allocator, and
// the requester's retransmit window carries the completion bookkeeping
// inline (PendingWr) — matching a response to its work request is a ring
// walk from the window head, not a hash lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "rdma/completion_queue.h"
#include "rdma/packet.h"
#include "rdma/wqe.h"
#include "sim/event_loop.h"
#include "sim/ring.h"

namespace hyperloop::rdma {

class Nic;

/// Requester-side completion bookkeeping for one in-flight work request,
/// carried inside the retransmit window entry.
struct PendingWr {
  uint64_t wr_id = 0;
  uint8_t opcode = 0;
  uint8_t signaled = 1;
  uint32_t byte_len = 0;
  Addr land_addr = 0;  ///< READ/CAS: where the response lands
};

/// One transmitted-but-unacknowledged request: the wire packet (payload
/// refcounted, not copied), its last send time, and the completion info.
struct TrackedRequest {
  sim::Time sent = 0;
  Packet pkt;
  PendingWr wr;
};

/// A cached response slot in the responder's direct-mapped replay ring
/// (psn_plus1 == 0 means empty; the ring keeps the last
/// kRespCacheEntries responses, exactly the old 128-PSN window).
struct CachedResponse {
  uint64_t psn_plus1 = 0;
  Packet resp;
};

/// A reliable-connected (or loopback) queue pair. Created and owned by a
/// Nic; treat fields as read-only outside rdma internals.
struct QueuePair {
  static constexpr uint64_t kRespCacheEntries = 128;

  uint32_t qpn = 0;
  Nic* nic = nullptr;

  bool connected = false;
  bool loopback = false;  ///< local-DMA QP (gCAS/gMEMCPY executor)
  NicId remote_nic = 0;
  uint32_t remote_qpn = 0;

  /// Send-queue ring: `sq_slots` Wqe-sized slots starting at sq_base in
  /// host memory. Slot for sequence s is sq_base + (s % sq_slots)*sizeof(Wqe).
  Addr sq_base = 0;
  uint32_t sq_slots = 0;
  uint64_t sq_head = 0;  ///< next WQE sequence the engine will examine
  uint64_t sq_tail = 0;  ///< next WQE sequence to be posted

  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;

  sim::Ring<RecvWqe> recv_queue;
  /// Inbound SEND/WRITE_IMM packets that arrived before a RECV was posted
  /// (receiver-not-ready; replayed on the next post_recv).
  sim::Ring<Packet> stalled_inbound;

  bool engine_running = false;
  bool blocked_on_wait = false;
  /// True while this QP sits on the NIC's DMA-patch watch list (engine
  /// stalled at an inactive WQE awaiting a descriptor patch).
  bool on_dma_watch = false;

  /// Intrusive WAIT wiring: the CQ this QP is queued on (0 = none) and
  /// the next QP in that CQ's waiter list.
  uint32_t waiting_cqn = 0;
  uint32_t next_wait_qpn = 0;

  // --- RC transport state ---
  uint64_t next_psn = 0;      ///< requester: next request PSN to assign
  uint64_t expected_psn = 0;  ///< responder: next PSN accepted in order
  /// Requester: transmitted-but-unacknowledged requests in PSN order;
  /// go-back-N replay is a linear walk of this ring.
  sim::Ring<TrackedRequest> unacked;
  sim::EventId retry_timer = 0;
  /// Consecutive retransmission rounds without ACK progress; drives the
  /// capped exponential backoff and the receiver-not-ready retry budget.
  uint32_t retry_rounds = 0;
  /// Absolute time at which the current window head goes stale. The retry
  /// timer is lazy: ACK progress only moves this horizon (a field write);
  /// a pending timer that fires early re-arms itself at the horizon
  /// instead of being cancelled and re-created per acknowledged window.
  sim::Time retry_deadline = 0;
  /// Responder: direct-mapped replay ring of recent responses indexed by
  /// psn % kRespCacheEntries; sized lazily on first response so
  /// requester-only QPs never pay for it.
  std::vector<CachedResponse> resp_cache;

  /// Index of this QP's slot in the NIC's connection-context cache
  /// (-1 = not resident). Backpointer makes every cache touch O(1);
  /// maintained by Nic::qp_context_touch / destroy_qp.
  int32_t ctx_cache_slot = -1;

  /// Address of the slot holding WQE sequence `seq`.
  Addr slot_addr(uint64_t seq) const {
    return sq_base + (seq % sq_slots) * sizeof(Wqe);
  }
  /// End of the send-queue ring region.
  Addr sq_end() const { return sq_base + uint64_t{sq_slots} * sizeof(Wqe); }

  /// Posted-but-unconsumed send WQEs.
  uint64_t sq_depth() const { return sq_tail - sq_head; }
};

}  // namespace hyperloop::rdma
