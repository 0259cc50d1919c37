// Cross-partition transactions: the classic two-phase commit of Fig 1(b),
// layered over multiple replication groups (one per partition, each an
// independently replicated chain). The coordinator is the client; every
// protocol step is itself an offloaded group operation, so with HyperLoop
// partitions no replica CPU appears anywhere in a distributed commit.
//
// Protocol (presumed-abort with durable roll-forward):
//   lock    acquire group write locks on every touched partition
//   PREPARE per partition: append a record that stages the txn's writes
//           in the partition's staging area and durably marks the txn
//           PREPARED in its status table
//   COMMIT  once every partition's prepare is durable: append a record
//           with the *final* DB writes plus the COMMITTED status mark.
//           Once every commit record is durable (the global commit
//           point), each partition runs ExecuteAndAdvance and releases
//           its locks right behind the apply on its own gMEMCPY ring
//           (core/lock.h), and the transaction reports at once
//
// Crash rules (tested in tests/two_phase_test.cc):
//   - status PREPARED only               -> presumed abort (staged data is
//                                           never copied to the DB area)
//   - status COMMITTED on any partition  -> roll forward everywhere: the
//                                           staged bytes are durable on
//                                           every prepared partition, so
//                                           recover_partition() completes
//                                           the transaction from them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/lock.h"
#include "core/region_layout.h"
#include "core/wal.h"

namespace hyperloop::core {

class TwoPhaseCoordinator {
 public:
  enum TxnState : uint64_t {
    kNone = 0,
    kPrepared = 1,
    kCommitted = 2,
  };

  struct PartitionCtx {
    ReplicationGroup* group = nullptr;
    ReplicatedWal* wal = nullptr;
    GroupLockManager* locks = nullptr;
    RegionLayout layout;
  };

  /// Concurrent cross-partition transactions the status/staging tables
  /// can hold (slots are reused round-robin by txn id).
  static constexpr uint32_t kMaxTxnSlots = 64;
  /// Bytes of staging per transaction per partition.
  static constexpr uint32_t kStagingBytes = 8192;

  struct Write {
    size_t partition = 0;
    uint64_t db_offset = 0;   ///< relative to the partition's DB area
    uint32_t lock_id = 0;     ///< stripe within the partition
    std::vector<uint8_t> data;
  };

  /// Protocol steps recurse through member functions capturing
  /// [this, shared TxnCtx, index] — well inside the inline capacity.
  using TxnDone = sim::SmallFn<void(bool committed), 64>;

  TwoPhaseCoordinator(sim::EventLoop& loop,
                      std::vector<PartitionCtx> partitions);

  /// Runs one cross-partition transaction. done(true) once commit marks
  /// are durable everywhere and the applies and releases are issued;
  /// done(false) if locks could not be acquired (nothing was logged).
  void execute(std::vector<Write> writes, TxnDone done);

  /// DB-area offset of a transaction slot's status word in every
  /// partition's layout: [txn_id u64][state u64].
  uint64_t status_offset(uint64_t txn_id) const {
    return (txn_id % kMaxTxnSlots) * 16;
  }
  /// DB-area offset of a transaction's staging block.
  uint64_t staging_offset(uint64_t txn_id) const {
    return status_region_bytes() +
           (txn_id % kMaxTxnSlots) * uint64_t{kStagingBytes};
  }
  /// First DB-area offset usable by application data.
  uint64_t app_data_base() const {
    return status_region_bytes() + uint64_t{kMaxTxnSlots} * kStagingBytes;
  }

  /// Post-crash recovery for one partition image: completes roll-forward
  /// for transactions that are COMMITTED anywhere (the caller passes the
  /// set of globally-committed txn ids found by scanning all partitions)
  /// and reports this partition's own status table.
  /// Returns the number of transactions rolled forward.
  uint64_t recover_partition(size_t partition,
                             const std::vector<uint64_t>& committed_txns);

  /// Scans a partition's status table; appends (txn_id, state) pairs.
  void scan_status(size_t partition,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) const;

  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }

 private:
  struct TxnCtx;

  uint64_t status_region_bytes() const {
    return uint64_t{kMaxTxnSlots} * 16;
  }

  void acquire_locks(std::shared_ptr<TxnCtx> t, size_t idx);
  void abort_release(std::shared_ptr<TxnCtx> t, size_t i);
  void prepare_step(std::shared_ptr<TxnCtx> t, size_t idx);
  void commit_step(std::shared_ptr<TxnCtx> t, size_t idx);
  void run_execs(std::shared_ptr<TxnCtx> t);
  void finish(std::shared_ptr<TxnCtx> t, bool ok);

  sim::EventLoop& loop_;
  std::vector<PartitionCtx> parts_;
  uint64_t next_txn_ = 1;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
};

}  // namespace hyperloop::core
