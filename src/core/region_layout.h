// Layout of the replicated region shared by every replica (and the client's
// local copy). The WAL, lock table and database all live at fixed offsets
// inside one region so the group primitives can address them uniformly:
//
//   [ control block | lock table | write-ahead log | database ]
//
// Control block (64 B):
//   u64 log_head     virtual log offset of the first unprocessed record
//   u64 log_tail[0]  tail slot 0: virtual log offset one past the last
//                    record of an even-numbered commit batch
//   u64 epoch        reserved for a membership epoch; nothing reads or
//                    writes it today
//   u64 zero         always 0: nothing writes it. A write-lock release is
//                    a gMEMCPY of this word onto the lock's writer word
//                    (GroupLockManager::wr_unlock).
//   u64 log_tail[1]  tail slot 1 (offset 32): the same for odd-numbered
//                    batches
//   bytes 40-63      unused
//
// The WAL's durable tail is the larger of the two tail slots
// (ReplicatedWal::load_tail). Two slots let two commit batches be in
// flight without one batch's tail WRITE carrying the other's value
// (core/wal.h).
//
// Sharded deployments (PR 8) carve one group region into K back-to-back
// slices, each a complete layout of its own: slice s sets `base` to
// s * region_size and every derived offset (control block, locks, log,
// db) lands inside [base, base + region_size). `base = 0` is the classic
// single-shard layout, so existing callers are unchanged.
#pragma once

#include <cstdint>

namespace hyperloop::core {

struct RegionLayout {
  uint64_t region_size = 4u << 20;
  uint32_t num_locks = 64;
  uint64_t log_size = 1u << 20;
  /// Region offset this layout starts at (shard slice base).
  uint64_t base = 0;

  static constexpr uint64_t kControlBase = 0;
  static constexpr uint64_t kControlSize = 64;
  static constexpr uint64_t kHeadOffset = 0;   ///< within control block
  static constexpr uint64_t kTailOffsets[2] = {8, 32};  ///< tail slots
  static constexpr uint64_t kEpochOffset = 16;
  static constexpr uint64_t kZeroOffset = 24;

  /// Bytes per lock-table entry: [writer word (8)] [reader count (8)].
  static constexpr uint64_t kLockEntrySize = 16;

  uint64_t control_base() const { return base + kControlBase; }
  uint64_t head_ptr_offset() const { return control_base() + kHeadOffset; }
  uint64_t tail_slot_offset(uint32_t slot) const {
    return control_base() + kTailOffsets[slot];
  }
  uint64_t epoch_ptr_offset() const { return control_base() + kEpochOffset; }
  uint64_t zero_word_offset() const { return control_base() + kZeroOffset; }

  uint64_t lock_table_base() const { return control_base() + kControlSize; }
  uint64_t lock_offset(uint32_t lock_id) const {
    return lock_table_base() + uint64_t{lock_id} * kLockEntrySize;
  }
  uint64_t reader_offset(uint32_t lock_id) const {
    return lock_offset(lock_id) + 8;
  }
  uint64_t log_base() const {
    // 64-byte align after the lock table.
    const uint64_t b = lock_table_base() + uint64_t{num_locks} * kLockEntrySize;
    return (b + 63) & ~uint64_t{63};
  }
  uint64_t db_base() const { return log_base() + log_size; }
  uint64_t db_size() const { return base + region_size - db_base(); }

  bool valid() const {
    return db_base() < base + region_size && log_size >= 4096;
  }

  /// The slice layout for shard `s` of equal slices: identical shape,
  /// based `s` slices in.
  RegionLayout shard_slice(uint32_t s) const {
    RegionLayout l = *this;
    l.base = base + uint64_t{s} * region_size;
    return l;
  }
};

}  // namespace hyperloop::core
