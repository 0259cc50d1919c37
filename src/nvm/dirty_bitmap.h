// Two-level dirty bitmap at cache-line (64 B) granularity.
//
// The NVM durability tracker's hot operations are: mark a written range
// dirty (every CPU store / NIC DMA into the NVM range), clear a range on
// persist, query a range (is_durable), and walk all dirty ranges
// (persist_all / crash). A std::map interval set (the tests' reference
// model, tests/interval_set.h) does these in O(log n) — node allocation
// on every insert, erase on every persist. This bitmap does them in
// O(words touched) with zero heap allocation after construction:
//
//   level 0: one bit per 64 B line of the tracked range
//   level 1: one summary bit per level-0 word (= per 64 lines = 4 KiB)
//
// mark/clear are a handful of shifts, masks and popcounts; queries are
// masked word scans; full walks scan only the summary-word watermark
// window that mark() has touched since the last time the map emptied, so
// a clean or lightly dirtied device is walked in O(dirty extent), not
// O(device size). dirty_bytes() is a maintained line popcount.
//
// Granularity contract: tracking is per 64 B line, matching real
// persistent-memory hardware where CLWB/gFLUSH flush whole cache lines.
// mark() and clear_range() round byte ranges outward to line boundaries;
// a range is "dirty" if any overlapping line is dirty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperloop::nvm {

class DirtyBitmap {
 public:
  static constexpr uint64_t kLineShift = 6;
  static constexpr uint64_t kLineBytes = 1ull << kLineShift;  // 64

  /// Tracks [0, size_bytes). All storage is allocated here, up front.
  explicit DirtyBitmap(uint64_t size_bytes);

  uint64_t size_bytes() const { return size_; }

  /// Marks every line overlapping [begin, end) dirty. No-op if empty.
  void mark(uint64_t begin, uint64_t end);

  /// Clears every line overlapping [begin, end) (persist rounds outward:
  /// flushing any byte of a line flushes the whole line).
  void clear_range(uint64_t begin, uint64_t end);

  /// Clears everything; visits only set summary words.
  void clear_all();

  /// True if any line overlapping [begin, end) is dirty. Empty: false.
  bool any_dirty(uint64_t begin, uint64_t end) const;

  /// True if every line overlapping [begin, end) is dirty. Empty: true.
  bool all_dirty(uint64_t begin, uint64_t end) const;

  bool empty() const { return dirty_lines_ == 0; }
  uint64_t dirty_lines() const { return dirty_lines_; }

  /// Dirty footprint at tracking granularity (dirty lines x 64 B).
  uint64_t dirty_bytes() const { return dirty_lines_ << kLineShift; }

  /// Calls fn(byte_begin, byte_end) for each maximal run of dirty lines,
  /// in ascending order. byte_end is clamped to size_bytes(). Allocation-
  /// free; only the summary-word watermark window [sum_lo_, sum_hi_) is
  /// scanned, so walking a clean or lightly dirtied device never touches
  /// the full summary (persist_all fires on every gFLUSH — this is hot).
  template <typename Fn>
  void for_each_dirty_range(Fn&& fn) const {
    uint64_t run_begin = 0, run_end = 0;  // [run_begin, run_end) in lines
    bool open = false;
    for (size_t s = sum_lo_; s < sum_hi_; ++s) {
      uint64_t sw = summary_[s];
      while (sw != 0) {
        const int b = __builtin_ctzll(sw);
        sw &= sw - 1;
        const size_t w = (s << 6) + static_cast<size_t>(b);
        uint64_t bits = words_[w];
        const uint64_t word_line0 = static_cast<uint64_t>(w) << 6;
        while (bits != 0) {
          const int lo = __builtin_ctzll(bits);
          // Length of the run of consecutive ones starting at `lo`.
          const uint64_t shifted = bits >> lo;
          const int len = (~shifted == 0) ? 64 - lo
                                          : __builtin_ctzll(~shifted);
          const uint64_t first = word_line0 + static_cast<uint64_t>(lo);
          const uint64_t last = first + static_cast<uint64_t>(len);
          if (open && first == run_end) {
            run_end = last;  // contiguous across a word/summary boundary
          } else {
            if (open) emit(fn, run_begin, run_end);
            run_begin = first;
            run_end = last;
            open = true;
          }
          if (len == 64 - lo) break;  // run reached the top of the word
          bits &= ~(((1ull << len) - 1) << lo);
        }
      }
    }
    if (open) emit(fn, run_begin, run_end);
  }

 private:
  template <typename Fn>
  void emit(Fn&& fn, uint64_t line_begin, uint64_t line_end) const {
    const uint64_t b = line_begin << kLineShift;
    uint64_t e = line_end << kLineShift;
    if (e > size_) e = size_;
    fn(b, e);
  }

  /// Clamps [begin, end) to the tracked range and converts to an inclusive
  /// line pair. Returns false for empty/out-of-range inputs.
  bool to_lines(uint64_t begin, uint64_t end, uint64_t* first,
                uint64_t* last) const;

  uint64_t size_;
  uint64_t lines_;
  uint64_t dirty_lines_ = 0;
  std::vector<uint64_t> words_;    // level 0: bit per line
  std::vector<uint64_t> summary_;  // level 1: bit per level-0 word
  // Watermark window: summary words outside [sum_lo_, sum_hi_) are known
  // clean. Widened by mark(), reset when the map empties; keeps full walks
  // (persist_all / crash / clear_all) proportional to the dirty extent
  // rather than the device size.
  size_t sum_lo_ = 0;
  size_t sum_hi_ = 0;
};

}  // namespace hyperloop::nvm
