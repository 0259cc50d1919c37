// A set of disjoint half-open byte ranges [begin, end), kept merged.
//
// The byte-exact reference model that nvm::DirtyBitmap, the NVM device's
// dirty tracker, is property-tested against (interval_set_test.cc).
// Operations are O(log n + k) where k is the number of overlapped
// intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace hyperloop::nvm {

/// Disjoint, merged set of [begin, end) intervals over uint64 addresses.
class IntervalSet {
 public:
  struct Interval {
    uint64_t begin;
    uint64_t end;  // exclusive
    bool operator==(const Interval&) const = default;
  };

  /// Inserts [begin, end); merges with neighbors/overlaps. No-op if empty.
  void insert(uint64_t begin, uint64_t end);

  /// Removes [begin, end) from the set (splitting as needed).
  void erase(uint64_t begin, uint64_t end);

  /// True if every byte of [begin, end) is covered. Empty range: true.
  bool covers(uint64_t begin, uint64_t end) const;

  /// True if any byte of [begin, end) is covered. Empty range: false.
  bool intersects(uint64_t begin, uint64_t end) const;

  void clear() { m_.clear(); total_ = 0; }
  bool empty() const { return m_.empty(); }
  size_t interval_count() const { return m_.size(); }

  /// Total number of bytes covered.
  uint64_t total_bytes() const { return total_; }

  /// Snapshot of all intervals in ascending order.
  std::vector<Interval> intervals() const;

 private:
  // begin -> end
  std::map<uint64_t, uint64_t> m_;
  uint64_t total_ = 0;
};

}  // namespace hyperloop::nvm
