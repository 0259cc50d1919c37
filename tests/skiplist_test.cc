#include "apps/kvstore/skiplist.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "sim/rng.h"

namespace hyperloop::apps {
namespace {

std::vector<uint8_t> val(uint64_t v) {
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

TEST(SkipList, InsertFind) {
  SkipList s;
  EXPECT_TRUE(s.insert(5, val(50)));
  EXPECT_TRUE(s.insert(3, val(30)));
  EXPECT_TRUE(s.insert(9, val(90)));
  EXPECT_EQ(s.size(), 3u);
  ASSERT_NE(s.find(3), nullptr);
  EXPECT_EQ(*s.find(3), val(30));
  EXPECT_EQ(s.find(4), nullptr);
}

TEST(SkipList, InsertOverwrites) {
  SkipList s;
  EXPECT_TRUE(s.insert(7, val(1)));
  EXPECT_FALSE(s.insert(7, val(2)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(*s.find(7), val(2));
}

TEST(SkipList, IterationIsSorted) {
  SkipList s;
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) s.insert(rng.next_below(10000), val(1));
  uint64_t prev = 0;
  bool first = true;
  size_t n = 0;
  for (auto it = s.begin(); it.valid(); it.next()) {
    if (!first) {
      EXPECT_GT(it.key(), prev);
    }
    prev = it.key();
    first = false;
    ++n;
  }
  EXPECT_EQ(n, s.size());
}

TEST(SkipList, SeekFindsLowerBound) {
  SkipList s;
  for (uint64_t k = 0; k < 100; k += 10) s.insert(k, val(k));
  auto it = s.seek(35);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 40u);
  it = s.seek(40);
  EXPECT_EQ(it.key(), 40u);
  it = s.seek(95);
  EXPECT_FALSE(it.valid());
  it = s.seek(0);
  EXPECT_EQ(it.key(), 0u);
}

TEST(SkipList, ClearEmpties) {
  SkipList s;
  for (uint64_t k = 0; k < 50; ++k) s.insert(k, val(k));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.find(10), nullptr);
  s.insert(1, val(1));  // usable after clear
  EXPECT_EQ(s.size(), 1u);
}

TEST(SkipList, MoveTransfersOwnership) {
  SkipList a;
  for (uint64_t k = 0; k < 10; ++k) a.insert(k, val(k));
  SkipList b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_NE(b.find(4), nullptr);
}

TEST(SkipList, MatchesMapModelUnderRandomOps) {
  SkipList s;
  std::map<uint64_t, std::vector<uint8_t>> model;
  sim::Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t k = rng.next_below(500);
    const double p = rng.next_double();
    if (p < 0.6) {
      auto v = val(rng.next_u64());
      EXPECT_EQ(s.insert(k, v), model.count(k) == 0) << "step " << step;
      model[k] = v;
    } else {
      const auto* got = s.find(k);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_EQ(got, nullptr) << "step " << step;
      } else {
        ASSERT_NE(got, nullptr) << "step " << step;
        EXPECT_EQ(*got, it->second) << "step " << step;
      }
    }
    if (step % 2000 == 0) {
      EXPECT_EQ(s.size(), model.size());
      // Full-order check.
      auto sit = s.begin();
      for (auto& [mk, mv] : model) {
        ASSERT_TRUE(sit.valid());
        EXPECT_EQ(sit.key(), mk);
        sit.next();
      }
      EXPECT_FALSE(sit.valid());
    }
  }
}

TEST(SkipList, LargeScale) {
  SkipList s;
  const uint64_t n = 100000;
  for (uint64_t k = 0; k < n; ++k) s.insert(k * 7 % n, val(k));
  EXPECT_EQ(s.size(), n);  // k*7 % n is a permutation (gcd(7,n)=1)
  for (uint64_t k = 0; k < n; k += 997) EXPECT_NE(s.find(k), nullptr);
}

}  // namespace
}  // namespace hyperloop::apps
