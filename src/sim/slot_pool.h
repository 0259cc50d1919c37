// Pooled slot table for multi-step async operations.
//
// An operation that waits on completions (a lock acquisition, a WAL
// execute batch, a logical read, a scatter-join) keeps its state in a
// slot, and its callbacks capture the slot *index*, never a pointer:
// claim() may grow the table. Released indices go on a LIFO free list, so
// the pool grows to the workload's high-water mark once and then recycles
// without allocating.
#pragma once

#include <cstdint>
#include <vector>

namespace hyperloop::sim {

template <typename T>
class SlotPool {
 public:
  /// Index of a free slot, holding whatever its previous user left there.
  uint32_t claim() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }

  /// Returns slot `idx` to the pool; the next claim() reuses it first.
  void release(uint32_t idx) { free_.push_back(idx); }

  T& operator[](uint32_t idx) { return slots_[idx]; }

  /// Every slot claimed so far, free ones included.
  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace hyperloop::sim
