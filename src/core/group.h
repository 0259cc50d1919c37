// The group-based primitive API (paper Table 1).
//
// A ReplicationGroup is the client-side handle to a chain of replicas that
// all hold an identically laid-out replicated data region. The four
// primitives mirror Table 1:
//
//   gWRITE(offset, size [, flush])        replicate client bytes at offset
//   gMEMCPY(src, dst, size [, flush])     copy within every replica's region
//   gCAS(offset, old, new, exec_map)      conditional CAS on every replica,
//                                         returning the per-replica result map
//   gFLUSH()                              durability barrier down the chain
//
// Four backends implement this interface: HyperLoopGroup (NIC-offloaded
// chain, §4), NaiveRdmaGroup (CPU-forwarded baseline, §6 "Naïve-RDMA"),
// FanoutGroup (NIC-offloaded primary-backup, §7) and TcpReplicationGroup
// (kernel TCP, §6.2). They share BackendGroup (core/backend_group.h),
// which holds the regions, the NIC plumbing and teardown (every QP and CQ
// a backend makes, and the one stop()), the primitive calls and the
// replica accessors, so each backend implements only its datapath:
// set-up, submit() and abort_pending(). ShardedGroup puts K
// chains behind the interface too, so the WAL / locking / storage layers
// above run unchanged on any of them.
//
// Durability contract: a flushed op, and gFLUSH (a flushed 0-byte
// gWRITE), is a durability barrier at each replica. When it completes,
// every byte that replica holds is durable, the bytes of earlier
// unflushed ops included: the offloaded backends' NIC FLUSH and the CPU
// baselines' persist write back every dirty byte (§4.2). WAL truncation
// relies on it: the execute batch's gMEMCPYs ride unflushed and the
// flushed head advance behind them persists the applied records.
// tests/group_order_test.cc and tests/wal_test.cc check it on every
// backend.
//
// Ordering contract: ops of one primitive issued on one group execute at
// every replica in issue order, and their completions fire in issue
// order. That includes ops parked for a credit and ops issued back to
// back without waiting for an ACK. Every backend keeps its credit window
// in an OpWindow (core/op_window.h), the one place the park rule is
// enforced: the credit-wait queue is FIFO, and an op issued while others
// are parked parks behind them, even when a completion has just freed a
// credit. The TCP backend also handles commands and ACKs in issue order
// (core/tcp_group.h). A ShardedGroup keeps the contract among the ops
// routed to one chain (ops on different chains touch disjoint bytes).
// Across primitives nothing is promised: HyperLoopGroup runs each
// primitive on its own ring. Callers that rely on the contract:
//   - the base gwritev(), for gWRITE;
//   - GroupLockManager, which pipelines dependent gCAS pairs;
//   - GroupLockManager::wr_unlock, a gMEMCPY that TransactionManager and
//     TwoPhaseCoordinator issue right behind a record's apply gMEMCPYs,
//     so the lock clears on each replica only after the apply;
//   - ReplicatedWal, whose two commit batches in flight must complete in
//     the order they went out.
// tests/group_order_test.cc holds every backend to it, for gCAS, gMEMCPY
// and gWRITE.
//
// Callback-type policy (see DESIGN.md "Callback types"): every async
// boundary in src/core takes a sim::SmallFn — never a copyable
// heap-backed type-erased callable. The caps below are a contract — continuation state that fits the cap lives
// inline in the pending-op slot and the steady-state path never touches
// the heap; a closure that outgrows its cap still works (SmallFn falls
// back to one allocation) but is a hot-path bug, which the sized
// static_asserts plus the nic_alloc_test transaction lap catch.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "sim/small_fn.h"

namespace hyperloop::core {

/// Inline capture budget for write-like completions. 96 bytes: enough for
/// a `this` pointer, a 64-bit LSN, and a nested 64-cap SmallFn (80 bytes)
/// — the WAL tail-pointer chain is exactly that shape.
inline constexpr size_t kDoneCap = 96;

/// Inline capture budget for gCAS completions. The lock manager's CAS
/// continuations are per-op slot indices plus `this` — 48 bytes is ample.
inline constexpr size_t kCasDoneCap = 48;

/// Per-replica gCAS result map: a non-owning view over the group's ack
/// scratch (valid only for the duration of the callback). Entry i is the
/// original value replica i held; replicas excluded by the execute map
/// report 0.
class CasResult {
 public:
  CasResult(const uint64_t* values, size_t n) : v_(values), n_(n) {}

  size_t size() const { return n_; }
  uint64_t operator[](size_t i) const {
    assert(i < n_);
    return v_[i];
  }
  const uint64_t* begin() const { return v_; }
  const uint64_t* end() const { return v_ + n_; }

 private:
  const uint64_t* v_;
  size_t n_;
};

/// Completion callback for write-like primitives. Move-only; capture
/// state stays inline in the group's pending-op slot.
using Done = sim::SmallFn<void(), kDoneCap>;

/// Completion callback for gCAS. The CasResult view is only valid inside
/// the call — copy values out if they must outlive it.
using CasDone = sim::SmallFn<void(const CasResult&), kCasDoneCap>;

static_assert(sizeof(Done) == kDoneCap + 2 * sizeof(void*),
              "Done must stay a flat inline-capture SmallFn");
static_assert(sizeof(CasDone) == kCasDoneCap + 2 * sizeof(void*),
              "CasDone must stay a flat inline-capture SmallFn");

/// One extent: a contiguous range of the replicated region.
struct Extent {
  uint64_t offset = 0;
  uint32_t len = 0;
};

/// Fixed-capacity inline extent list. Lives by value in pending-op slots,
/// credit-wait rings and scatter-join slots, so the batched submit and
/// read paths never touch the heap.
template <size_t N>
struct ExtentList {
  static constexpr size_t kCapacity = N;

  Extent entries[kCapacity];
  uint32_t count = 0;

  ExtentList() = default;
  ExtentList(std::initializer_list<Extent> il) {
    assert(il.size() <= kCapacity);
    for (const Extent& e : il) entries[count++] = e;
  }

  void push_back(const Extent& e) {
    assert(count < kCapacity);
    entries[count++] = e;
  }
  void clear() { count = 0; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  bool full() const { return count == kCapacity; }
  const Extent& operator[](size_t i) const {
    assert(i < count);
    return entries[i];
  }
  const Extent* begin() const { return entries; }
  const Extent* end() const { return entries + count; }
  uint32_t total_len() const {
    uint32_t n = 0;
    for (const Extent& e : *this) n += e.len;
    return n;
  }
};

/// gWRITEV's extent list. The capacity is part of the offload contract:
/// HyperLoopGroup pre-posts kCapacity WRITE WQEs per chain slot and
/// patches unused ones to NOPs.
using ExtentVec = ExtentList<8>;

/// gCAS execute map: one bit per chain position (bit i == replica i).
/// Chains are <= 64 replicas everywhere in the paper and this repo, so a
/// single word replaces the old std::vector<bool> (which allocated at
/// every lock call site).
struct ExecMap {
  uint64_t bits = 0;

  static constexpr size_t kMaxReplicas = 64;

  static constexpr ExecMap none() { return ExecMap{0}; }
  static constexpr ExecMap all(size_t n) {
    return ExecMap{n >= kMaxReplicas ? ~uint64_t{0}
                                     : (uint64_t{1} << n) - 1};
  }
  static constexpr ExecMap one(size_t i) { return ExecMap{uint64_t{1} << i}; }

  constexpr bool test(size_t i) const { return (bits >> i) & uint64_t{1}; }
  ExecMap& set(size_t i) {
    bits |= uint64_t{1} << i;
    return *this;
  }
  constexpr bool empty() const { return bits == 0; }
  constexpr bool operator==(const ExecMap&) const = default;
};

class ReplicationGroup {
 public:
  virtual ~ReplicationGroup() = default;

  /// Number of replicas in the chain (excluding the client).
  virtual size_t group_size() const = 0;

  /// Size of the replicated data region in bytes.
  virtual uint64_t region_size() const = 0;

  /// Replicates `len` bytes at `offset` of the client's local region to
  /// the same offset on every replica. With `flush`, durability is
  /// guaranteed on every replica before `done` fires.
  virtual void gwrite(uint64_t offset, uint32_t len, bool flush,
                      Done done) = 0;

  /// Scatter-gather gWRITE: replicates every extent of the client's
  /// region in one submission. With `flush`, all extents are durable on
  /// every replica before `done` fires, and `done` fires only after the
  /// *last* extent is replicated — extents land in list order, so callers
  /// may encode ordering (e.g. WAL bodies before the tail pointer) by
  /// position. The base implementation is a loop of gwrite() riding each
  /// backend's FIFO same-primitive completion order; HyperLoopGroup
  /// overrides it with a native one-chain-traversal batch.
  virtual void gwritev(const ExtentVec& extents, bool flush, Done done) {
    assert(!extents.empty());
    for (size_t i = 0; i + 1 < extents.size(); ++i) {
      gwrite(extents[i].offset, extents[i].len, flush, Done{});
    }
    const Extent& last = extents[extents.size() - 1];
    gwrite(last.offset, last.len, flush, std::move(done));
  }

  /// Copies `len` bytes from src_offset to dst_offset within every
  /// replica's region (remote log processing). The client's copy makes
  /// the same copy during the call, before the op is issued or parked
  /// for a credit, so client_load sees it at once: a transaction that
  /// reports at its commit point leaves its record in the client's copy.
  virtual void gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                       uint32_t len, bool flush, Done done) = 0;

  /// Compare-and-swap on the 8 bytes at `offset` on every replica whose
  /// bit is set in `exec_map` (group locking / selective undo).
  virtual void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
                    ExecMap exec_map, CasDone done) = 0;

  /// Standalone durability barrier across all replicas.
  virtual void gflush(Done done) = 0;

  /// Idempotent teardown. Pending completion callbacks are dropped
  /// without being invoked (each counted in aborted_ops()), queued
  /// credit-wait ops are discarded, and NIC resources (QPs, then their
  /// CQs) are destroyed. After stop() the group only serves the local
  /// load/store accessors below; issuing primitives is undefined.
  /// Destructors call stop().
  virtual void stop() = 0;

  /// Number of in-flight or queued ops whose callbacks were dropped by
  /// stop() instead of completing.
  uint64_t aborted_ops() const { return aborted_ops_; }

  // --- client-local region access (the coordinator's copy) ---

  /// Stores bytes into the client's local copy of the region. Call before
  /// gwrite() of the same range. The client copy is write-through durable:
  /// the head of the chain persists its own NVM stores with CPU persist
  /// instructions (pmem-style), so a coordinator crash never loses locally
  /// staged log records. Client-side gmemcpy effects are persisted too.
  virtual void client_store(uint64_t offset, const void* src,
                            uint32_t len) = 0;

  /// Reads from the client's local copy.
  virtual void client_load(uint64_t offset, void* dst,
                           uint32_t len) const = 0;

  /// Reads from replica `i`'s region (used by tests to check replication
  /// and by read paths that go to a specific replica).
  virtual void replica_load(size_t i, uint64_t offset, void* dst,
                            uint32_t len) const = 0;

  /// Convenience: gwrite of data passed inline (store + gwrite).
  void gwrite_bytes(uint64_t offset, const void* src, uint32_t len,
                    bool flush, Done done) {
    client_store(offset, src, len);
    gwrite(offset, len, flush, std::move(done));
  }

 protected:
  /// stop() bookkeeping shared by all implementations.
  bool stopped_ = false;
  uint64_t aborted_ops_ = 0;
};

}  // namespace hyperloop::core
