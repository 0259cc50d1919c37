// ACID transactions over a replication group (§3.1's representative flow):
//
//   1. acquire group write locks (gCAS), in sorted order (no deadlock)
//   2. Append the redo record to the replicated WAL (gWRITEV + gFLUSH)
//      -- the transaction is durable & committed here --
//   3. ExecuteAndAdvance: apply the record on every replica (gMEMCPY)
//   4. release the locks (gMEMCPY of the zero word, core/lock.h), issued
//      right behind step 3 without waiting for its ACK
//   5. report the commit
//
// Steps 3-5 run back to back in the append's completion, so a writer
// waits for two chain round trips: the lock, then the append. Step 4
// relies on ring order: gMEMCPYs of one group execute at every replica
// in issue order (group.h), so each release lands behind the apply of
// our record on every replica. That holds even when a concurrent
// transaction's batch claimed the record: the claim came before our
// completion ran, and execute_and_advance issues a batch's gMEMCPYs
// before it returns. Truncation (the head advance, gWRITE + gFLUSH)
// follows the apply, but no lock protects it.
//
// Atomicity: redo records are applied entirely or (after a crash)
// replayed from the committed log. Consistency/Isolation: group locks; a
// reader that locks a replica once the release has landed there sees the
// record, and the locks are held on every replica until then. A reader
// holds its read lock only while it reads: DocStore issues the read
// unlock once it has the value, then reports without waiting for it
// (apps/docstore/docstore.h), so a write lock the same client takes
// after the report finds the count drained. The client's copy of the
// region holds the record when step 5 fires, since gmemcpy() updates
// it at the call (group.h). Durability: the record is gFLUSHed at step
// 2 and stays inside the durable [head, tail) range until its head
// advance lands, so a crash replays it. With HyperLoop as the group
// backend, steps 2-4 never involve a replica CPU.
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
  /// `lock_ids` the stripes it touches. done(true) at the commit point,
  /// once the apply and the releases are issued; done(false) if locks
  /// could not be acquired (nothing was written), after the locks it
  /// took are released.
  void execute(std::vector<ReplicatedWal::Entry> writes,
               std::vector<uint32_t> lock_ids, TxnDone done);

  const Stats& stats() const { return stats_; }

 private:
  void acquire_next(std::shared_ptr<struct TxnState> st);
  void release_and_abort(std::shared_ptr<struct TxnState> st, size_t held);

  ReplicationGroup& group_;
  ReplicatedWal& wal_;
  GroupLockManager& locks_;
  sim::EventLoop& loop_;
  Stats stats_;
  uint64_t next_txn_id_ = 1;
};

}  // namespace hyperloop::core
