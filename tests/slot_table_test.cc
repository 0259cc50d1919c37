// SlotTable: the DB-area slot format and k % shards striping both stores
// use.
#include "apps/slot_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace hyperloop::apps {
namespace {

constexpr uint32_t kValueSize = 48;  // stride 64
constexpr uint64_t kStride = 64;

core::RegionLayout slice() {
  core::RegionLayout l;
  l.region_size = 64 << 10;
  l.log_size = 4096;
  l.num_locks = 4;
  return l;
}

uint64_t slots_per_slice() { return slice().db_size() / kStride; }

TEST(SlotTable, OneShardScanIsOneExtent) {
  const SlotTable t(slice(), 1, kValueSize);
  const core::ReadVec v = t.scan_extents(10, 5);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].offset, slice().db_base() + 10 * kStride);
  EXPECT_EQ(v[0].len, 5 * kStride);
  EXPECT_EQ(t.offset(10), v[0].offset);
  EXPECT_EQ(t.db_offset(10), 10 * kStride);
}

TEST(SlotTable, ThreeShardScanIsOneExtentPerShard) {
  const SlotTable t(slice(), 3, kValueSize);
  // Keys 10..16: shard 0 holds 12, 15 (local 4, 5); shard 1 holds 10,
  // 13, 16 (local 3..5); shard 2 holds 11, 14 (local 3, 4).
  const core::ReadVec v = t.scan_extents(10, 7);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].offset, t.layout(0).db_base() + 4 * kStride);
  EXPECT_EQ(v[0].len, 2 * kStride);
  EXPECT_EQ(v[1].offset, t.layout(1).db_base() + 3 * kStride);
  EXPECT_EQ(v[1].len, 3 * kStride);
  EXPECT_EQ(v[2].offset, t.layout(2).db_base() + 3 * kStride);
  EXPECT_EQ(v[2].len, 2 * kStride);
  for (uint64_t k = 10; k < 17; ++k) {
    EXPECT_EQ(t.offset(k), t.layout(k % 3).db_base() + k / 3 * kStride);
  }
}

TEST(SlotTable, FourShardScanSkipsShardsWithoutKeysAndClipsAtDbEnd) {
  const SlotTable t(slice(), 4, kValueSize);
  // Keys 5, 6 live on shards 1 and 2 only.
  const core::ReadVec few = t.scan_extents(5, 2);
  ASSERT_EQ(few.size(), 2u);
  EXPECT_EQ(few[0].offset, t.layout(1).db_base() + kStride);
  EXPECT_EQ(few[1].offset, t.layout(2).db_base() + kStride);
  EXPECT_EQ(few.total_len(), 2 * kStride);

  // Three keys per shard from local slot n - 2: only two slots fit.
  const uint64_t n = slots_per_slice();
  const core::ReadVec end = t.scan_extents(4 * (n - 2), 12);
  ASSERT_EQ(end.size(), 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(end[s].offset, t.layout(s).db_base() + (n - 2) * kStride);
    EXPECT_EQ(end[s].len, 2 * kStride);
    EXPECT_LE(end[s].offset + end[s].len,
              t.layout(s).base + slice().region_size);
  }
  EXPECT_TRUE(t.scan_extents(4 * n, 4).empty());
}

TEST(SlotTable, EncodedSlotsCountAsOccupied) {
  const SlotTable t(slice(), 1, kValueSize);
  const std::vector<uint8_t> value(20, 0xAB);
  std::vector<uint8_t> bytes = t.encode(7, value);
  ASSERT_EQ(bytes.size(), kStride);
  EXPECT_EQ(t.value_len(bytes.data()), 20u);
  bytes.resize(2 * kStride, 0);  // an empty slot
  const std::vector<uint8_t> full = t.encode(9, std::vector<uint8_t>(48, 1));
  bytes.insert(bytes.end(), full.begin(), full.end());
  EXPECT_EQ(t.occupied(core::ReadView(bytes.data(),
                                      static_cast<uint32_t>(bytes.size()))),
            2);
  // A length beyond the value size is not a value.
  bytes[8] = 49;
  EXPECT_EQ(t.value_len(bytes.data()), 0u);
}

}  // namespace
}  // namespace hyperloop::apps
