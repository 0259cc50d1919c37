#include "interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "nvm/dirty_bitmap.h"
#include "sim/rng.h"

namespace hyperloop::nvm {
namespace {

TEST(IntervalSet, InsertAndCover) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_TRUE(s.covers(10, 20));
  EXPECT_TRUE(s.covers(12, 15));
  EXPECT_FALSE(s.covers(5, 15));
  EXPECT_FALSE(s.covers(15, 25));
  EXPECT_EQ(s.total_bytes(), 10u);
}

TEST(IntervalSet, EmptyRangeSemantics) {
  IntervalSet s;
  EXPECT_TRUE(s.covers(5, 5));
  EXPECT_FALSE(s.intersects(5, 5));
  s.insert(7, 7);  // no-op
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, MergesAdjacent) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(10, 20);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.covers(0, 20));
}

TEST(IntervalSet, MergesOverlapping) {
  IntervalSet s;
  s.insert(0, 15);
  s.insert(10, 30);
  s.insert(25, 40);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total_bytes(), 40u);
}

TEST(IntervalSet, KeepsDisjoint) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_FALSE(s.covers(10, 20));
  EXPECT_TRUE(s.intersects(5, 25));
}

TEST(IntervalSet, BridgeMergesMany) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(40, 50);
  s.insert(5, 45);  // bridges all three
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.covers(0, 50));
}

TEST(IntervalSet, EraseMiddleSplits) {
  IntervalSet s;
  s.insert(0, 30);
  s.erase(10, 20);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_TRUE(s.covers(0, 10));
  EXPECT_TRUE(s.covers(20, 30));
  EXPECT_FALSE(s.intersects(10, 20));
  EXPECT_EQ(s.total_bytes(), 20u);
}

TEST(IntervalSet, EraseEdges) {
  IntervalSet s;
  s.insert(10, 20);
  s.erase(5, 12);
  EXPECT_TRUE(s.covers(12, 20));
  EXPECT_FALSE(s.intersects(10, 12));
  s.erase(18, 25);
  EXPECT_TRUE(s.covers(12, 18));
  EXPECT_EQ(s.total_bytes(), 6u);
}

TEST(IntervalSet, EraseAcrossMultiple) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(40, 50);
  s.erase(5, 45);
  EXPECT_EQ(s.total_bytes(), 10u);
  EXPECT_TRUE(s.covers(0, 5));
  EXPECT_TRUE(s.covers(45, 50));
}

TEST(IntervalSet, ClearResets) {
  IntervalSet s;
  s.insert(0, 100);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_bytes(), 0u);
}

// Property test against a brute-force bitmap model.
TEST(IntervalSet, MatchesBitmapModelUnderRandomOps) {
  sim::Rng rng(77);
  IntervalSet s;
  std::vector<bool> model(256, false);
  for (int step = 0; step < 5000; ++step) {
    const uint64_t a = rng.next_below(256);
    const uint64_t b = a + rng.next_below(32);
    const uint64_t end = std::min<uint64_t>(b, 256);
    if (rng.chance(0.6)) {
      s.insert(a, end);
      for (uint64_t i = a; i < end; ++i) model[i] = true;
    } else {
      s.erase(a, end);
      for (uint64_t i = a; i < end; ++i) model[i] = false;
    }
    // Spot-check a random query window.
    const uint64_t qa = rng.next_below(256);
    const uint64_t qb = std::min<uint64_t>(qa + rng.next_below(16), 256);
    bool all = true, any = false;
    for (uint64_t i = qa; i < qb; ++i) {
      all = all && model[i];
      any = any || model[i];
    }
    if (qa < qb) {
      EXPECT_EQ(s.covers(qa, qb), all) << "step " << step;
      EXPECT_EQ(s.intersects(qa, qb), any) << "step " << step;
    }
    uint64_t total = 0;
    for (bool v : model) total += v ? 1 : 0;
    EXPECT_EQ(s.total_bytes(), total) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// DirtyBitmap: the production durability tracker. IntervalSet stays as the
// byte-exact reference model; the bitmap must agree with it exactly when
// both are driven at line (64 B) granularity.

constexpr uint64_t kLine = DirtyBitmap::kLineBytes;

TEST(DirtyBitmap, MarksAtLineGranularity) {
  DirtyBitmap b(1 << 16);
  EXPECT_TRUE(b.empty());
  b.mark(10, 12);  // 2 bytes -> whole first line
  EXPECT_EQ(b.dirty_bytes(), kLine);
  EXPECT_TRUE(b.any_dirty(0, 1));
  EXPECT_TRUE(b.all_dirty(0, kLine));
  EXPECT_FALSE(b.any_dirty(kLine, 2 * kLine));
  b.mark(kLine - 1, kLine + 1);  // straddles lines 0 and 1
  EXPECT_EQ(b.dirty_bytes(), 2 * kLine);
}

TEST(DirtyBitmap, ClearRangeRoundsOutward) {
  DirtyBitmap b(1 << 16);
  b.mark(0, 4 * kLine);
  b.clear_range(kLine + 1, kLine + 2);  // any byte of line 1 clears line 1
  EXPECT_EQ(b.dirty_bytes(), 3 * kLine);
  EXPECT_FALSE(b.any_dirty(kLine, 2 * kLine));
  EXPECT_TRUE(b.all_dirty(2 * kLine, 4 * kLine));
}

TEST(DirtyBitmap, EmptyRangeSemantics) {
  DirtyBitmap b(1 << 16);
  b.mark(5, 5);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.any_dirty(5, 5));
  EXPECT_TRUE(b.all_dirty(5, 5));
}

TEST(DirtyBitmap, ForEachMergesRunsAcrossWordBoundaries) {
  // 64 lines per level-0 word: a run spanning lines 62..66 crosses a word
  // boundary and must still be reported as one range.
  DirtyBitmap b(1 << 20);
  b.mark(62 * kLine, 67 * kLine);
  int runs = 0;
  uint64_t begin = 0, end = 0;
  b.for_each_dirty_range([&](uint64_t bb, uint64_t ee) {
    ++runs;
    begin = bb;
    end = ee;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(begin, 62 * kLine);
  EXPECT_EQ(end, 67 * kLine);
}

TEST(DirtyBitmap, ClearAllVisitsOnlyDirtyWords) {
  DirtyBitmap b(1 << 20);
  b.mark(0, 100);
  b.mark((1 << 20) - 30, 1 << 20);
  EXPECT_EQ(b.dirty_lines(), 3u);
  b.clear_all();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.any_dirty(0, 1 << 20));
}

TEST(DirtyBitmap, TailRangeClampsToDeviceSize) {
  // A device whose size is not a multiple of one line: ranges clamp.
  DirtyBitmap b(3 * kLine + 10);
  b.mark(3 * kLine, 3 * kLine + 10);
  uint64_t end = 0;
  b.for_each_dirty_range([&](uint64_t, uint64_t e) { end = e; });
  EXPECT_EQ(end, 3 * kLine + 10);  // clamped, not rounded up past the device
  b.mark(0, ~0ull);                // oversized range clamps too
  EXPECT_EQ(b.dirty_lines(), 4u);
}

// Randomized property test: ~1M mixed mark/clear/query/walk operations,
// checked move-for-move against the IntervalSet reference driven with
// line-rounded ranges. Any divergence in covers/intersects/total bytes or
// in the dirty-range walk fails with the step number.
TEST(DirtyBitmap, MatchesIntervalSetReferenceUnderRandomOps) {
  static constexpr uint64_t kSpace = 1 << 20;  // 16384 lines
  sim::Rng rng(0x5eed);
  DirtyBitmap bitmap(kSpace);
  IntervalSet ref;

  auto line_floor = [](uint64_t x) { return x & ~(kLine - 1); };
  auto line_ceil = [](uint64_t x) {
    return std::min<uint64_t>((x + kLine - 1) & ~(kLine - 1), kSpace);
  };

  const int kSteps = 350000;  // ~1M ops counting the paired queries
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t a = rng.next_below(kSpace);
    const uint64_t len = rng.chance(0.2) ? rng.next_below(16 * kLine)
                                         : rng.next_below(192);
    const uint64_t e = std::min<uint64_t>(a + len, kSpace);
    const double roll = rng.next_double();
    if (roll < 0.55) {
      bitmap.mark(a, e);
      ref.insert(line_floor(a), a == e ? line_floor(a) : line_ceil(e));
    } else if (roll < 0.95) {
      bitmap.clear_range(a, e);
      ref.erase(line_floor(a), a == e ? line_floor(a) : line_ceil(e));
    } else if (roll < 0.999) {
      // Walk-based flush of everything — exercises for_each + clear_all
      // against the reference snapshot.
      uint64_t walked = 0;
      bitmap.for_each_dirty_range(
          [&](uint64_t b, uint64_t en) { walked += en - b; });
      // Runs are line-granular except the final clamp; compare on lines.
      EXPECT_EQ((walked + kLine - 1) / kLine, bitmap.dirty_lines())
          << "step " << step;
      bitmap.clear_all();
      ref.clear();
    }

    ASSERT_EQ(bitmap.dirty_bytes(), ref.total_bytes()) << "step " << step;
    ASSERT_EQ(bitmap.empty(), ref.empty()) << "step " << step;

    // Two random query windows per step.
    for (int q = 0; q < 2; ++q) {
      const uint64_t qa = rng.next_below(kSpace);
      const uint64_t qe =
          std::min<uint64_t>(qa + 1 + rng.next_below(4 * kLine), kSpace);
      if (qa >= qe) continue;
      const uint64_t la = line_floor(qa), le = line_ceil(qe);
      ASSERT_EQ(bitmap.any_dirty(qa, qe), ref.intersects(la, le))
          << "step " << step << " query [" << qa << "," << qe << ")";
      ASSERT_EQ(bitmap.all_dirty(qa, qe), ref.covers(la, le))
          << "step " << step << " query [" << qa << "," << qe << ")";
    }

    // Periodically cross-check the full dirty-range walk.
    if (step % 25000 == 0) {
      auto ivs = ref.intervals();
      size_t i = 0;
      bitmap.for_each_dirty_range([&](uint64_t b, uint64_t en) {
        ASSERT_LT(i, ivs.size()) << "step " << step;
        EXPECT_EQ(b, ivs[i].begin) << "step " << step;
        EXPECT_EQ(en, ivs[i].end) << "step " << step;
        ++i;
      });
      EXPECT_EQ(i, ivs.size()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace hyperloop::nvm
