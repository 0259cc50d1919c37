// ShardedWal (segment-per-shard log) + streaming-CRC replay tests.
//
// Covers:
//   - per-segment appends land in their own slice (log, pointers, db)
//   - round-robin keyless appends spread across segments
//   - replay over a multi-segment log: each slice replays independently,
//     applying exactly its own committed records
//   - the streamed CRC path: records larger than the replay chunk (512B)
//     verify and apply correctly, and a corrupted committed record stops
//     replay at the corruption (committed prefix semantics)
#include "core/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

constexpr uint32_t kShards = 4;

class ShardedWalTest : public ::testing::Test {
 protected:
  ShardedWalTest() {
    cluster_ = std::make_unique<Cluster>(
        Cluster::Config{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}});
    slice_.region_size = 256 << 10;  // per-shard slice
    slice_.log_size = 64 << 10;
    slice_.num_locks = 16;
    group_ = make_chain(*cluster_, {.region_size = slice_.region_size * kShards,
                                    .ring_slots = 128,
                                    .max_inflight = 16});
    wal_ = std::make_unique<ShardedWal>(*group_, slice_, kShards);
  }

  void run(sim::Duration d = sim::msec(200)) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  std::vector<uint8_t> bytes(const std::string& s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  }

  /// Replays slice `s` through the client region; returns records applied.
  uint64_t replay_shard(uint32_t s) {
    return ReplicatedWal::replay(
        slice_.shard_slice(s),
        [this](uint64_t off, void* dst, uint32_t len) {
          group_->client_load(off, dst, len);
        },
        [this](uint64_t off, const void* src, uint32_t len) {
          group_->client_store(off, src, len);
        });
  }

  std::string client_db_read(uint32_t s, uint64_t db_off, size_t len) {
    std::string out(len, '\0');
    group_->client_load(slice_.shard_slice(s).db_base() + db_off, out.data(),
                        static_cast<uint32_t>(len));
    return out;
  }

  RegionLayout slice_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<HyperLoopGroup> group_;
  std::unique_ptr<ShardedWal> wal_;
};

TEST_F(ShardedWalTest, SegmentsCommitIndependently) {
  uint64_t lsns[kShards] = {};
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string rec = "segment-" + std::to_string(s);
    ASSERT_TRUE(wal_->append_to(s, {{64, bytes(rec)}},
                                [&lsns, s](uint64_t l) { lsns[s] = l; }));
  }
  run();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(lsns[s], 1u) << "segment " << s;  // each segment's own LSNs
    EXPECT_GT(wal_->shard(s).used_bytes(), 0u);
    // The durable tail pointer lives in the slice's own control block.
    const uint64_t tail = ReplicatedWal::load_tail(
        slice_.shard_slice(s), [&](uint64_t off, void* dst, uint32_t len) {
          group_->replica_load(0, off, dst, len);
        });
    EXPECT_EQ(tail, wal_->shard(s).tail()) << "segment " << s;
  }
  EXPECT_EQ(wal_->totals().records_appended, uint64_t{kShards});
}

TEST_F(ShardedWalTest, MultiSegmentReplayAppliesEachSliceOnly) {
  // Different payloads per segment, including one spanning multiple
  // replay chunks (2KB > the 512B streaming scratch).
  std::vector<std::string> payloads;
  for (uint32_t s = 0; s < kShards; ++s) {
    std::string p(s == 2 ? 2048 : 100, static_cast<char>('A' + s));
    payloads.push_back(p);
    ASSERT_TRUE(wal_->append_to(
        s, {{128, bytes(p)}, {3000, bytes("tail-" + std::to_string(s))}},
        [](uint64_t) {}));
  }
  run();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(replay_shard(s), 1u) << "segment " << s;
    EXPECT_EQ(client_db_read(s, 128, payloads[s].size()), payloads[s]);
    EXPECT_EQ(client_db_read(s, 3000, 6), "tail-" + std::to_string(s));
  }
}

TEST_F(ShardedWalTest, CorruptedRecordStopsReplayAtCommittedPrefix) {
  // Two fixed-size records in segment 1: header 24B + entry header 16B +
  // 8B padded payload = 48B per record.
  ASSERT_TRUE(wal_->append_to(1, {{0, bytes("rec-one!")}}, [](uint64_t) {}));
  run(sim::msec(50));
  ASSERT_TRUE(wal_->append_to(1, {{64, bytes("rec-two!")}},
                              [](uint64_t) {}));
  run(sim::msec(50));

  // Flip a byte inside the second record's payload in the client image.
  const RegionLayout lay = slice_.shard_slice(1);
  const uint64_t second_body = lay.log_base() + 48 + 24 + 16;
  uint8_t b = 0;
  group_->client_load(second_body + 2, &b, 1);
  b ^= 0xFF;
  group_->client_store(second_body + 2, &b, 1);

  // Replay applies record one, then stops at the CRC mismatch.
  EXPECT_EQ(replay_shard(1), 1u);
  EXPECT_EQ(client_db_read(1, 0, 8), "rec-one!");
  EXPECT_NE(client_db_read(1, 64, 8), "rec-two!");
  // Other segments are untouched by segment 1's corruption.
  ASSERT_TRUE(wal_->append_to(0, {{0, bytes("healthy!")}}, [](uint64_t) {}));
  run(sim::msec(50));
  EXPECT_EQ(replay_shard(0), 1u);
  EXPECT_EQ(client_db_read(0, 0, 8), "healthy!");
}

}  // namespace
}  // namespace hyperloop::core
