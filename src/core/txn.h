// ACID transactions over a replication group (§3.1's representative flow):
//
//   1. acquire group write locks (gCAS), in sorted order (no deadlock)
//   2. Append the redo record to the replicated WAL (gWRITEV + gFLUSH)
//      -- the transaction is durable & committed here --
//   3. ExecuteAndAdvance: apply the record on every replica (gMEMCPY)
//   4. once the WAL's applied frontier covers the record (when_applied),
//      release the locks (gCAS)
//
// Truncation (the head advance, gWRITE + gFLUSH) follows step 3 but no
// lock protects it, so the locks do not wait for it. Step 4 waits on the
// frontier, not on our own execute call: a concurrent transaction's batch
// may have claimed our record, and its gMEMCPYs and our unlock gCAS run
// on different rings with no order between them.
//
// Atomicity: redo records are applied entirely or (after a crash) replayed
// from the committed log. Consistency/Isolation: group locks; a reader
// that locks a replica after step 4 sees the record, since every replica
// executed its gMEMCPY before the frontier moved. Durability: the record
// is gFLUSHed at step 2 and stays inside the durable [head, tail) range
// until its head advance lands, so a crash after step 4 replays it. With
// HyperLoop as the group backend, steps 2-4 never involve a replica CPU.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/lock.h"
#include "core/wal.h"

namespace hyperloop::core {

class TransactionManager {
 public:
  struct Stats {
    uint64_t committed = 0;
    uint64_t aborted = 0;  ///< lock acquisition gave up
  };

  /// Per-transaction state rides in one shared_ptr; continuations capture
  /// [this, st(, index)], so they stay inside the inline capacity.
  using TxnDone = sim::SmallFn<void(bool committed), 64>;

  TransactionManager(ReplicationGroup& group, ReplicatedWal& wal,
                     GroupLockManager& locks, sim::EventLoop& loop)
      : group_(group), wal_(wal), locks_(locks), loop_(loop) {}

  /// Runs one transaction: `writes` are redo entries against the DB area,
  /// `lock_ids` the stripes it touches. done(true) after locks released;
  /// done(false) if locks could not be acquired (nothing was written).
  void execute(std::vector<ReplicatedWal::Entry> writes,
               std::vector<uint32_t> lock_ids, TxnDone done);

  const Stats& stats() const { return stats_; }

 private:
  void acquire_next(std::shared_ptr<struct TxnState> st);
  void release_and_abort(std::shared_ptr<struct TxnState> st, size_t i);
  void commit_release(std::shared_ptr<struct TxnState> st, size_t i);

  ReplicationGroup& group_;
  ReplicatedWal& wal_;
  GroupLockManager& locks_;
  sim::EventLoop& loop_;
  Stats stats_;
  uint64_t next_txn_id_ = 1;
};

}  // namespace hyperloop::core
