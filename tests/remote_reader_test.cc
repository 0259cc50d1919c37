// RemoteReader / ShardedReader (sharded one-sided read datapath) tests.
//
// Covers the read-pool contract and the sharded composition:
//   - fragmented large reads (len > slot_size slices into slot-sized READs)
//   - replica-selection policies (head-only, round-robin)
//   - slot exhaustion: reads park FIFO and replay in order (no jumping)
//   - readv extent batching: one endpoint, bytes concatenated in order
//   - the landing ring: reads issued from callbacks wrap it, and the
//     placement rule keeps FIFO claims within the credit bound apart
//   - teardown with reads in flight: callbacks dropped, responses drop at
//     the NIC as invalid_qp_drops, no crash
//   - ShardedReader routing, cross-shard scatter/join, and stop() aborting
//     live joins
#include "core/remote_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "chain_setup.h"
#include "core/sharded_reader.h"

namespace hyperloop::core {
namespace {

uint8_t pattern_byte(uint64_t i) { return static_cast<uint8_t>(i * 31 + 7); }

ReadVec one_extent(uint64_t offset, uint32_t len) {
  ReadVec v;
  v.push_back({offset, len});
  return v;
}

// One 3-replica chain plus a client; the region is pre-filled with a
// deterministic pattern replicated to every replica, so reads from any
// replica under any policy can be verified byte-for-byte.
struct ReaderFixture : ::testing::Test {
  static constexpr uint64_t kRegion = 256 << 10;
  static constexpr uint32_t kFill = 64 << 10;

  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  std::unique_ptr<HyperLoopGroup> group = make_chain(
      cluster, {.region_size = kRegion, .ring_slots = 64, .max_inflight = 16});

  void SetUp() override {
    std::vector<uint8_t> fill(kFill);
    for (uint32_t i = 0; i < kFill; ++i) fill[i] = pattern_byte(i);
    group->client_store(0, fill.data(), kFill);
    int wrote = 0;
    for (uint32_t off = 0; off < kFill; off += 16 << 10) {
      group->gwrite(off, 16 << 10, /*flush=*/false, [&] { ++wrote; });
    }
    run(sim::msec(50));
    ASSERT_EQ(wrote, static_cast<int>(kFill / (16 << 10)));
  }

  std::unique_ptr<RemoteReader> make_reader(RemoteReader::Options opts = {}) {
    return std::make_unique<RemoteReader>(cluster.server(3),
                                          replica_targets(*group), opts);
  }

  void run(sim::Duration d = sim::msec(10)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  static void expect_pattern(ReadView view, uint64_t off) {
    for (uint32_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i], pattern_byte(off + i)) << "byte " << i;
    }
  }
};

TEST_F(ReaderFixture, FragmentedReadSpansSlots) {
  RemoteReader::Options opts;
  opts.slots = 8;
  opts.slot_size = 4096;
  auto reader = make_reader(opts);
  // 12 KB + 100: three full slots plus a tail fragment.
  const uint32_t len = (12 << 10) + 100;
  const uint64_t off = 64;
  bool done = false;
  reader->read(off, len, [&](ReadView view) {
    done = true;
    ASSERT_EQ(view.size(), len);
    expect_pattern(view, off);
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_EQ(reader->stats().reads_issued, 1u);
  EXPECT_EQ(reader->stats().frags_issued, 4u);
  EXPECT_EQ(reader->stats().read_bytes, uint64_t{len});
}

TEST_F(ReaderFixture, HeadOnlyPolicySticksToTargetZero) {
  auto reader = make_reader();  // default: kHeadOnly
  int ok = 0;
  for (int k = 0; k < 10; ++k) {
    reader->read(static_cast<uint64_t>(k) * 128, 64, [&](ReadView) { ++ok; });
  }
  run();
  ASSERT_EQ(ok, 10);
  EXPECT_EQ(reader->replica_frags(0), 10u);
  EXPECT_EQ(reader->replica_frags(1), 0u);
  EXPECT_EQ(reader->replica_frags(2), 0u);
}

TEST_F(ReaderFixture, RoundRobinSpreadsAcrossReplicas) {
  RemoteReader::Options opts;
  opts.policy = RemoteReader::Policy::kRoundRobin;
  auto reader = make_reader(opts);
  int ok = 0;
  for (int k = 0; k < 9; ++k) {
    const uint64_t off = static_cast<uint64_t>(k) * 256;
    reader->read(off, 32, [&, off](ReadView view) {
      ++ok;
      expect_pattern(view, off);
    });
  }
  run();
  ASSERT_EQ(ok, 9);
  // Logical reads rotate 0,1,2,0,1,2,... — three each.
  EXPECT_EQ(reader->replica_frags(0), 3u);
  EXPECT_EQ(reader->replica_frags(1), 3u);
  EXPECT_EQ(reader->replica_frags(2), 3u);
}

TEST_F(ReaderFixture, NextReplicaAdvancesRoundRobinState) {
  RemoteReader::Options opts;
  opts.policy = RemoteReader::Policy::kRoundRobin;
  auto reader = make_reader(opts);
  // Callers that read-lock pick first, then read_from the same index;
  // successive picks must rotate.
  const size_t a = reader->next_replica();
  const size_t b = reader->next_replica();
  const size_t c = reader->next_replica();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(c, a);
  bool done = false;
  reader->read_from(a, 0, 16, [&](ReadView view) {
    done = true;
    expect_pattern(view, 0);
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_EQ(reader->replica_frags(a), 1u);
}

TEST_F(ReaderFixture, SlotExhaustionParksAndReplaysFifo) {
  RemoteReader::Options opts;
  opts.slots = 2;
  opts.slot_size = 4096;
  auto reader = make_reader(opts);  // head-only: one endpoint's slot ring
  std::vector<int> order;
  for (int k = 0; k < 8; ++k) {
    reader->read(static_cast<uint64_t>(k) * 64, 32,
                 [&order, k](ReadView) { order.push_back(k); });
  }
  run();
  ASSERT_EQ(order.size(), 8u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(order[k], k) << "parked reads must replay FIFO";
  }
  EXPECT_EQ(reader->stats().reads_issued, 8u);
}

TEST_F(ReaderFixture, SmallReadNeverJumpsAParkedLargeRead) {
  RemoteReader::Options opts;
  opts.slots = 2;
  opts.slot_size = 4096;
  auto reader = make_reader(opts);
  std::vector<char> order;
  // First read holds one slot; the 2-slot read parks (one slot free); the
  // trailing 1-slot read would fit the free slot but must queue behind the
  // parked head, not starve it.
  reader->read(0, 32, [&](ReadView) { order.push_back('a'); });
  reader->read(64, 8000, [&](ReadView view) {
    order.push_back('b');
    EXPECT_EQ(view.size(), 8000u);
  });
  reader->read(128, 32, [&](ReadView) { order.push_back('c'); });
  run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'a');
  EXPECT_EQ(order[1], 'b');
  EXPECT_EQ(order[2], 'c');
}

TEST_F(ReaderFixture, ReadvConcatenatesExtentsInOrder) {
  auto reader = make_reader();
  ReadVec v;
  v.push_back({1000, 24});
  v.push_back({200, 100});
  v.push_back({64, 8});
  bool done = false;
  reader->readv(v, [&](ReadView view) {
    done = true;
    ASSERT_EQ(view.size(), 132u);
    const uint8_t* p = view.data();
    for (uint32_t i = 0; i < 24; ++i) ASSERT_EQ(p[i], pattern_byte(1000 + i));
    for (uint32_t i = 0; i < 100; ++i) {
      ASSERT_EQ(p[24 + i], pattern_byte(200 + i));
    }
    for (uint32_t i = 0; i < 8; ++i) ASSERT_EQ(p[124 + i], pattern_byte(64 + i));
  });
  run();
  ASSERT_TRUE(done);
  // One logical read, one fragment per extent, one doorbell (not assertable
  // here, but the fragment count is).
  EXPECT_EQ(reader->stats().reads_issued, 1u);
  EXPECT_EQ(reader->stats().frags_issued, 3u);
}

// Mixed sizes under a small credit budget, each callback issuing the
// next read: fragments of later reads land while earlier reads wait for
// their callbacks, and the landing ring (3 × 16 KB here) wraps many times.
// Every view must hold exactly its own extent's bytes.
TEST_F(ReaderFixture, ReadsIssuedFromCallbacksWrapTheLandingRing) {
  RemoteReader::Options opts;
  opts.slots = 4;
  opts.slot_size = 4096;
  auto reader = make_reader(opts);  // head-only: one endpoint, one ring
  constexpr uint32_t kLens[] = {16 << 10, 5000, 100, 12 << 10, 7, 9000, 4096};
  constexpr int kReads = 300;
  int issued = 0;
  int verified = 0;
  std::function<void()> issue = [&] {
    const uint32_t len = kLens[issued % 7];
    const uint64_t off = (static_cast<uint64_t>(issued) * 1237) % (kFill - len);
    ++issued;
    reader->read(off, len, [&, off, len](ReadView view) {
      ASSERT_EQ(view.size(), len);
      expect_pattern(view, off);
      ++verified;
      if (issued < kReads) issue();
    });
  };
  for (int k = 0; k < 6; ++k) issue();  // some park for credits
  run(sim::msec(50));
  EXPECT_EQ(issued, kReads);
  EXPECT_EQ(verified, kReads);
}

// The landing rule's bound: a claim of at most S bytes, where the claims
// after the oldest plus the new one total at most S (the credits in
// flight), always fits 3 × S, inside the ring and clear of every live
// claim. A deterministic pseudo-random FIFO claim/release walk, placing
// each claim as an endpoint does: at the base when idle, else by
// RemoteReader::landing_offset over the oldest and newest live claims.
TEST(LandingRingTest, ClaimsWithinTheCreditBoundNeverOverlap) {
  constexpr uint32_t kS = 16 << 10;
  constexpr uint32_t kCap = 3 * kS;
  struct Claim {
    uint32_t off, len;
  };
  std::deque<Claim> live;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  int wraps = 0;
  uint32_t last_end = 0;
  for (int step = 0; step < 200000; ++step) {
    uint32_t after_oldest = 0;
    for (size_t i = 1; i < live.size(); ++i) after_oldest += live[i].len;
    const uint32_t n = 1 + static_cast<uint32_t>(next() % kS);
    const uint32_t budget = live.empty() ? kS : kS - after_oldest;
    if (n <= budget && next() % 8 < 5) {
      const uint32_t off =
          live.empty() ? 0
                       : RemoteReader::landing_offset(
                             live.front().off, live.back().off,
                             live.back().off + live.back().len, n, kCap);
      ASSERT_LE(off + n, kCap) << "step " << step;
      for (const Claim& c : live) {
        ASSERT_TRUE(off + n <= c.off || c.off + c.len <= off)
            << "step " << step << ": [" << off << ", " << off + n
            << ") overlaps [" << c.off << ", " << c.off + c.len << ")";
      }
      if (!live.empty() && off < last_end) ++wraps;
      last_end = off + n;
      live.push_back({off, n});
    } else if (!live.empty()) {
      live.pop_front();
    }
  }
  EXPECT_GT(wraps, 100) << "the walk never wrapped the ring";
}

TEST_F(ReaderFixture, TeardownWithReadsInFlightDropsResponses) {
  auto reader = make_reader();  // 16 KB slots
  bool fired = false;
  // A 16 KB read's response alone serializes for ~2.3us; the request WQEs
  // execute within ~1us. Stopping in between tears the QPs down with the
  // responses still on the wire.
  reader->read(0, 16 << 10, [&](ReadView) { fired = true; });
  reader->read(1024, 256, [&](ReadView) { fired = true; });
  run(sim::nsec(1500));  // requests executed; responses still in flight
  reader->stop();
  EXPECT_EQ(reader->stats().aborted_reads, 2u);
  run(sim::msec(10));  // let the orphaned responses arrive and drop
  EXPECT_FALSE(fired) << "stopped reads must not invoke their callbacks";
  EXPECT_GT(cluster.server(3).nic().counters().invalid_qp_drops, 0u)
      << "orphaned READ responses should drop at the client NIC";
  reader->stop();  // idempotent
}

TEST_F(ReaderFixture, StopAbortsParkedReads) {
  RemoteReader::Options opts;
  opts.slots = 1;
  opts.slot_size = 4096;
  auto reader = make_reader(opts);
  int fired = 0;
  reader->read(0, 32, [&](ReadView) { ++fired; });    // in flight
  reader->read(64, 32, [&](ReadView) { ++fired; });   // parked
  reader->read(128, 32, [&](ReadView) { ++fired; });  // parked
  run(sim::nsec(1000));
  reader->stop();
  run(sim::msec(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(reader->stats().aborted_reads, 3u);
}

// --- ShardedReader: composition over per-shard reader pools ------------

constexpr uint64_t kShardedRegion = 256 << 10;
constexpr uint32_t kNumShards = 2;
constexpr uint64_t kSpan = kShardedRegion / kNumShards;

struct ShardedReaderFixture : ::testing::Test {
  // one NIC port per chain
  Cluster cluster{{.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}, .num_nics = kNumShards}}};
  std::unique_ptr<ShardedGroup> group = [this] {
    std::vector<std::unique_ptr<ReplicationGroup>> chains;
    for (uint32_t s = 0; s < kNumShards; ++s) {
      chains.push_back(make_chain(cluster,
                                  {.region_size = kShardedRegion,  // identity
                                   .ring_slots = 64,
                                   .max_inflight = 16,
                                   .nic_index = s}));
    }
    return std::make_unique<ShardedGroup>(
        std::move(chains), ShardRouter::range(kNumShards, kSpan));
  }();

  void SetUp() override {
    // Pattern across the routing boundary so reads have bytes on both
    // shards; the facade splits the store/gwrite per owning chain.
    std::vector<uint8_t> fill(8 << 10);
    const uint64_t base = kSpan - (4 << 10);
    for (size_t i = 0; i < fill.size(); ++i) {
      fill[i] = pattern_byte(base + i);
    }
    group->client_store(base, fill.data(),
                        static_cast<uint32_t>(fill.size()));
    int wrote = 0;
    group->gwrite(base, 4 << 10, false, [&] { ++wrote; });
    group->gwrite(kSpan, 4 << 10, false, [&] { ++wrote; });
    run(sim::msec(50));
    ASSERT_EQ(wrote, 2);
  }

  std::unique_ptr<ShardedReader> make_sharded_reader(
      RemoteReader::Policy policy = RemoteReader::Policy::kHeadOnly) {
    std::vector<std::unique_ptr<RemoteReader>> readers;
    for (uint32_t s = 0; s < kNumShards; ++s) {
      auto& hl = static_cast<HyperLoopGroup&>(group->shard(s));
      readers.push_back(std::make_unique<RemoteReader>(
          cluster.server(3), replica_targets(hl),
          RemoteReader::Options{.policy = policy, .nic_index = s}));
    }
    return std::make_unique<ShardedReader>(std::move(readers),
                                           group->router());
  }

  void run(sim::Duration d = sim::msec(10)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(ShardedReaderFixture, RoutesSingleReadsToTheOwningShard) {
  auto reader = make_sharded_reader();
  int ok = 0;
  const uint64_t off0 = kSpan - 1024;  // shard 0
  const uint64_t off1 = kSpan + 512;   // shard 1
  reader->readv(one_extent(off0, 64), [&, off0](ReadView view) {
    ++ok;
    for (uint32_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i], pattern_byte(off0 + i));
    }
  });
  reader->readv(one_extent(off1, 64), [&, off1](ReadView view) {
    ++ok;
    for (uint32_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i], pattern_byte(off1 + i));
    }
  });
  run();
  ASSERT_EQ(ok, 2);
  EXPECT_EQ(reader->stats().reads_issued, 2u);
  EXPECT_EQ(reader->stats().scatter_reads, 0u);
  EXPECT_EQ(reader->shard(0).reads_issued(), 1u);
  EXPECT_EQ(reader->shard(1).reads_issued(), 1u);
  EXPECT_EQ(reader->replica_frags(0), 2u);  // head-only on both shards
}

TEST_F(ShardedReaderFixture, CrossShardReadvScattersAndJoinsInOrder) {
  auto reader = make_sharded_reader();
  ReadVec v;
  v.push_back({kSpan + 256, 32});   // shard 1 first in list order
  v.push_back({kSpan - 512, 64});   // shard 0
  v.push_back({kSpan + 1024, 16});  // shard 1 again
  bool done = false;
  reader->readv(v, [&](ReadView view) {
    done = true;
    ASSERT_EQ(view.size(), 112u);
    const uint8_t* p = view.data();
    for (uint32_t i = 0; i < 32; ++i) {
      ASSERT_EQ(p[i], pattern_byte(kSpan + 256 + i));
    }
    for (uint32_t i = 0; i < 64; ++i) {
      ASSERT_EQ(p[32 + i], pattern_byte(kSpan - 512 + i));
    }
    for (uint32_t i = 0; i < 16; ++i) {
      ASSERT_EQ(p[96 + i], pattern_byte(kSpan + 1024 + i));
    }
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_EQ(reader->stats().scatter_reads, 1u);
  EXPECT_EQ(reader->shard(0).stats().frags_issued, 1u);
  EXPECT_EQ(reader->shard(1).stats().frags_issued, 2u);
}

TEST_F(ShardedReaderFixture, UniformReadvForwardsWithoutJoining) {
  auto reader = make_sharded_reader();
  ReadVec v;
  v.push_back({kSpan - 2048, 32});
  v.push_back({kSpan - 1024, 32});
  bool done = false;
  reader->readv(v, [&](ReadView view) {
    done = true;
    EXPECT_EQ(view.size(), 64u);
  });
  run();
  ASSERT_TRUE(done);
  EXPECT_EQ(reader->stats().scatter_reads, 0u);
  EXPECT_EQ(reader->shard(0).stats().reads_issued, 1u);
  EXPECT_EQ(reader->shard(1).stats().reads_issued, 0u);
}

TEST_F(ShardedReaderFixture, StopAbortsLiveScatterJoins) {
  auto reader = make_sharded_reader();
  ReadVec v;
  v.push_back({64, 32});
  v.push_back({kSpan + 64, 32});
  int fired = 0;
  reader->readv(v, [&](ReadView) { ++fired; });
  // Let the request WQEs execute, then stop with the responses still on
  // the wire: the join must die silently.
  run(sim::nsec(1500));
  reader->stop();
  run();
  EXPECT_EQ(fired, 0);
  EXPECT_GE(reader->stats().aborted_reads, 1u);
  reader->stop();  // idempotent
}

}  // namespace
}  // namespace hyperloop::core
