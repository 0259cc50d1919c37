// Work-queue element definitions.
//
// The crucial design point (paper §4.1, "remote work request manipulation"):
// send-queue WQEs live *inside registered host memory*, and the patchable
// fields are grouped in a contiguous, trivially-copyable `WqeDescriptor` at
// the start of the WQE. A replica's pre-posted RECV scatters inbound
// metadata bytes directly onto these descriptors, simultaneously rewriting
// address/length/opcode *and* setting the `active` (ownership) byte — the
// paper's modified-libmlx4 deferred-ownership scheme. The gCAS execute map
// is realized by patching `opcode` to kCas or kNop per replica.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "rdma/memory.h"

namespace hyperloop::rdma {

/// Operation codes for send-queue WQEs.
enum class Opcode : uint8_t {
  kNop = 0,       ///< completes locally with no effect (gCAS execute-map "skip")
  kWrite = 1,     ///< RDMA WRITE local->remote
  kWriteImm = 2,  ///< RDMA WRITE with immediate (consumes a remote RECV)
  kSend = 3,      ///< two-sided SEND (consumes a remote RECV, scatters payload)
  kRead = 4,      ///< RDMA READ remote->local (length 0 == durability flush)
  kFlush = 5,     ///< gFLUSH: sugar for a 0-byte READ with flush semantics
  kCas = 6,       ///< 8-byte compare-and-swap at remote_addr
  kLocalCopy = 7, ///< NIC DMA copy within the local host (gMEMCPY executor)
  kWait = 8,      ///< CORE-Direct WAIT: block queue until CQ count reached
};

/// WqeDescriptor::flags bits.
enum WqeFlags : uint8_t {
  /// Gather the payload as a zero-copy borrow of the local region
  /// instead of memcpy'ing it into the packet (kWrite/kWriteImm, single
  /// gather segment). Set on chain-forwarding WQEs, whose local bytes
  /// were DMA-written by the upstream hop and retire before reuse; the
  /// client-issue WQE keeps the copy (the mandatory source DMA-in).
  kWqeFlagZeroCopy = 1u << 0,
  /// Suppress the responder's standalone ACK for this WRITE (success path
  /// only; errors always respond). Set on chain-trio data WRITEs, which
  /// are immediately followed by a FLUSH (0-byte READ) on the same QP:
  /// the FLUSH's ReadResp acknowledges the WRITE cumulatively, so the
  /// standalone ACK only burns a packet. Completion still arrives — the
  /// requester posts success CQEs for every entry a cumulative response
  /// retires.
  kWqeFlagAckElide = 1u << 1,
};

/// The remotely patchable part of a WQE. Contiguous and trivially
/// copyable so a RECV scatter entry can overwrite it byte-for-byte.
struct WqeDescriptor {
  Addr local_addr = 0;   ///< gather source / READ & CAS result destination / copy src
  Addr remote_addr = 0;  ///< write/read/CAS target / copy destination
  Addr aux_addr = 0;     ///< optional second gather segment (gCAS result map)
  uint64_t compare = 0;  ///< CAS expected value
  uint64_t swap = 0;     ///< CAS replacement value
  uint32_t length = 0;   ///< bytes for the primary segment
  uint32_t aux_length = 0;  ///< bytes for the second gather segment
  uint32_t rkey = 0;     ///< remote key for remote_addr
  uint32_t lkey = 0;     ///< local key for local_addr
  uint32_t imm = 0;      ///< immediate data (kWriteImm)
  uint8_t opcode = 0;    ///< Opcode, as a byte so patches stay POD
  uint8_t active = 1;    ///< ownership: 0 = driver holds, 1 = NIC may execute
  uint8_t flags = 0;     ///< WqeFlags bitmask (kWqeFlagZeroCopy, ...)
  uint8_t pad = 0;
};
static_assert(sizeof(WqeDescriptor) == 64, "descriptor layout is part of the wire format");

/// A full send-queue WQE: patchable descriptor + fixed control fields.
struct Wqe {
  WqeDescriptor d{};
  uint64_t wr_id = 0;
  /// kWait only: the completion counter to watch...
  uint32_t wait_cq = 0;
  /// ...and the absolute completion count that un-blocks the queue.
  uint64_t wait_threshold = 0;
  /// Whether completion posts a CQE (all completions bump the CQ's
  /// monotonic counter regardless, which is what WAIT observes).
  uint8_t signaled = 1;
  uint8_t pad[7] = {};
};
static_assert(sizeof(Wqe) % 8 == 0);

/// Scatter/gather element for RECVs.
struct Sge {
  Addr addr = 0;
  uint32_t length = 0;
  uint32_t lkey = 0;
};

/// Fixed-capacity SGE list: pre-posted RECVs are re-armed on the refill
/// hot path (one per ring slot), so the scatter list lives inline in the
/// WQE instead of on the heap. The widest consumer is the fanout
/// primary rearm at 4 + 3*K entries for K backups (K <= 7 with the
/// group-size-8 cap shared by the naive/tcp baselines).
struct SgeList {
  static constexpr size_t kMaxSges = 25;

  Sge entries[kMaxSges];
  uint32_t count = 0;

  SgeList() = default;
  SgeList(std::initializer_list<Sge> il) { *this = il; }
  SgeList& operator=(std::initializer_list<Sge> il) {
    assert(il.size() <= kMaxSges);
    count = 0;
    for (const Sge& s : il) entries[count++] = s;
    return *this;
  }

  void push_back(const Sge& s) {
    assert(count < kMaxSges);
    entries[count++] = s;
  }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const Sge* begin() const { return entries; }
  const Sge* end() const { return entries + count; }
};

/// A receive WQE: inbound SEND payload is scattered across `sges` in
/// order. Held NIC-side (the paper only requires *send* queues to be
/// remotely writable).
struct RecvWqe {
  uint64_t wr_id = 0;
  SgeList sges;
};

/// Helpers for building common WQEs.
Wqe make_write(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
               uint32_t len, uint64_t wr_id = 0);
Wqe make_write_imm(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
                   uint32_t len, uint32_t imm, uint64_t wr_id = 0);
Wqe make_send(Addr local, uint32_t lkey, uint32_t len, uint64_t wr_id = 0);
Wqe make_read(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
              uint32_t len, uint64_t wr_id = 0);
Wqe make_flush(Addr remote, uint32_t rkey, uint64_t wr_id = 0);
Wqe make_cas(Addr result, uint32_t lkey, Addr remote, uint32_t rkey,
             uint64_t compare, uint64_t swap, uint64_t wr_id = 0);
Wqe make_local_copy(Addr src, Addr dst, uint32_t len, uint64_t wr_id = 0);
Wqe make_wait(uint32_t cq_id, uint64_t threshold, uint64_t wr_id = 0);
Wqe make_nop(uint64_t wr_id = 0);

}  // namespace hyperloop::rdma
