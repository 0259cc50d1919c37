// Group locking (§5, "Locking and Isolation"): acquisition on gCAS, write
// release on gMEMCPY (see "Release" below).
//
// Each lock-table entry holds a writer word and a reader count (see
// RegionLayout). Write locks are *group* locks: a gCAS(0 -> owner) against
// every replica; on a partial acquisition (some replicas already held) the
// acquired subset is rolled back with a second gCAS whose execute map
// selects exactly the replicas that succeeded — the paper's undo flow.
// Read locks are per-replica (only the replica being read from
// participates) and coexist with writers via the classic rwlock protocol:
// a reader increments the reader count and then checks the writer word; a
// writer sets the writer word on all replicas and then waits for the
// reader counts to drain.
//
// A gCAS(expected=0, desired=0) is used as a NIC-offloaded *read* of a
// lock word (it swaps nothing and returns the current value).
//
// Release. wr_unlock is not a gCAS but a gMEMCPY of the region's zero
// word (RegionLayout::kZeroOffset) onto the writer word. gMEMCPYs of one
// group execute at every replica in issue order (group.h), so a release
// issued right behind a transaction's apply clears the word on each
// replica only after the apply has landed there. The holder need not
// wait for the apply's ACK before releasing (core/txn.h). The zero word,
// the lock table and the WAL's log and DB areas share one layout slice,
// so a ShardedGroup that routes the slice to one chain (as the WAL
// requires) carries a release on the chain of the applies it follows.
//
// Pipelining. Each protocol step is a pair of gCAS whose order matters,
// and the pair is issued back to back instead of waiting for the first
// op's ACK. ReplicationGroup guarantees that ops of one primitive issued
// on one group execute at every replica in issue order (group.h; both
// words share one 16-byte lock entry, so a ShardedGroup routes a pair to
// one chain), so at each replica:
//
//   reader:  R1 = gCAS(count, g -> g+1)   then  R2 = gCAS(writer, 0 -> 0)
//   writer:  W1 = gCAS(writer, 0 -> owner) then W2 = gCAS(count, 0 -> 0)
//
// execute in that order. Either R2 runs before W1 — then W2 runs after R1
// and sees the increment, so the writer waits for the count to drain — or
// W1 runs before R2, and the reader sees the writer and backs out. A
// reader and a writer therefore never both believe they hold one
// replica's lock. An uncontended read lock costs 2 gCAS in 1 serial
// round trip, and an uncontended write lock the same. The read unlock is
// a third gCAS (the decrement); a caller that already has its value need
// not wait for it (apps/docstore), so a locked read waits for 1 lock
// round trip.
//
// Probe rule. Nobody sleeps between tries: every wait is a read-only gCAS
// issued as soon as the previous one returns, and each counts against
// max_attempts.
//   - A reader that has seen a writer backs out of the count if its
//     increment landed, then probes the writer word on its replica and
//     increments again only once the word reads clear. Probes never touch
//     the count, so waiting readers cannot hold it up and starve the
//     writer's drain.
//   - A writer that found the lock held, or has just undone a partial
//     acquisition, probes the writer word on every replica and reissues
//     its pair only once every replica reads it clear. Probes set
//     nothing, so a waiting writer never holds a word on some replicas
//     that readers and other writers must then wait for and it must undo.
//   - A writer that holds the writer word waits for the reader counts by
//     re-reading them until every replica reads 0.
//
// Every multi-step acquisition (attempt/probe/undo loops) runs as a
// small state machine over a pooled slot table: callbacks capture only
// [this, slot index], so they always fit a SmallFn's inline storage and
// the retry loops allocate nothing in steady state.
#pragma once

#include <cstdint>

#include "core/group.h"
#include "core/region_layout.h"
#include "sim/slot_pool.h"
#include "sim/small_fn.h"

namespace hyperloop::core {

class GroupLockManager {
 public:
  struct Config {
    /// Probes and count re-reads (see above) before done(false).
    int max_attempts = 10000;
  };

  struct Stats {
    uint64_t wr_acquired = 0;
    uint64_t wr_conflicts = 0;  ///< attempts that found the lock held
    uint64_t partial_undos = 0; ///< partial acquisitions rolled back
    uint64_t rd_acquired = 0;
  };

  /// Inline capacity for lock completion callbacks (matches the WAL's).
  static constexpr size_t kCallbackCap = 64;
  using LockDone = sim::SmallFn<void(bool acquired), kCallbackCap>;
  using Done = sim::SmallFn<void(), kCallbackCap>;

  GroupLockManager(ReplicationGroup& group, RegionLayout layout, Config cfg);
  GroupLockManager(ReplicationGroup& group, RegionLayout layout)
      : GroupLockManager(group, layout, Config()) {}

  /// Acquires the write lock `lock_id` for `owner` (non-zero) on every
  /// replica. done(false) after max_attempts probes and count re-reads;
  /// the writer holds no replica's writer word then.
  void wr_lock(uint32_t lock_id, uint64_t owner, LockDone done);

  /// Releases a write lock the caller holds on every replica: a gMEMCPY
  /// of the zero word onto the writer word. At each replica it executes
  /// after every gMEMCPY issued earlier on this group. `done` (may be
  /// empty) fires when the release has executed everywhere.
  void wr_unlock(uint32_t lock_id, Done done);

  /// Acquires a read lock on one replica. done(false) after max_attempts
  /// probes of a writer word that never cleared; the reader holds no
  /// count then.
  void rd_lock(uint32_t lock_id, size_t replica, LockDone done);

  /// Releases a read lock on one replica. `done` (may be empty) fires
  /// when the decrement has executed; lock ops issued later on this group
  /// execute behind it on that replica (group.h).
  void rd_unlock(uint32_t lock_id, size_t replica, Done done);

  const Stats& stats() const { return stats_; }

 private:
  /// One in-flight write-lock acquisition.
  struct WrOp {
    uint32_t lock_id = 0;
    uint64_t owner = 0;
    int attempts_left = 0;
    bool live = false;
    /// Pipelined pair state: ops still to complete, replicas whose
    /// writer word was 0 (now ours), and whether every count read 0.
    uint8_t pending = 0;
    ExecMap acquired;
    bool drained = false;
    /// Another owner held the lock when last looked at: probe until it
    /// reads clear everywhere before reissuing the pair.
    bool held = false;
    LockDone done;
  };

  /// One in-flight read-lock acquisition.
  struct RdOp {
    uint32_t lock_id = 0;
    size_t replica = 0;
    int attempts_left = 0;
    bool live = false;
    /// Pipelined pair state: ops still to complete, the count the
    /// increment expects, the count it found, and the writer word last
    /// read (non-zero: probe until it clears before incrementing).
    uint8_t pending = 0;
    uint64_t guess = 0;
    uint64_t count = 0;
    uint64_t writer = 0;
    LockDone done;
  };

  /// One in-flight CAS read-modify-write loop (reader count add).
  struct AddOp {
    uint64_t offset = 0;
    size_t replica = 0;
    int64_t delta = 0;
    uint64_t guess = 0;
    bool live = false;
    Done done;
  };

  void wr_attempt(uint32_t idx);
  void wr_settle(uint32_t idx);
  void wait_readers_drain(uint32_t idx);
  void wr_finish(uint32_t idx, bool acquired);

  void rd_attempt(uint32_t idx);
  void rd_settle(uint32_t idx);
  void rd_finish(uint32_t idx, bool acquired);

  /// Adds `delta` to one replica's reader count with a gCAS loop whose
  /// first probe expects `guess`.
  void cas_loop_add(uint64_t offset, size_t replica, int64_t delta,
                    uint64_t guess, Done done);
  void add_attempt(uint32_t idx);

  ExecMap all_replicas() const {
    return ExecMap::all(group_.group_size());
  }

  ReplicationGroup& group_;
  RegionLayout layout_;
  Config cfg_;
  Stats stats_;

  sim::SlotPool<WrOp> wr_ops_;
  sim::SlotPool<RdOp> rd_ops_;
  sim::SlotPool<AddOp> add_ops_;
};

}  // namespace hyperloop::core
