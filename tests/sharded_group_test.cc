// ShardedGroup (multi-chain replication) tests.
//
// Covers the router contract and the composition semantics:
//   - range routing math (clamping, boundaries)
//   - identity addressing: offsets are never rebased, data written through
//     the sharded facade reads back from every child chain's replicas
//   - cross-shard gWRITEV split + pooled scatter-join (one done per batch)
//   - gFLUSH broadcast barrier across all chains
//   - stop() aborting live joins and child chains
#include "core/sharded_group.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

constexpr uint64_t kRegion = 1 << 20;  // logical region
constexpr uint32_t kShards = 4;
constexpr uint64_t kSpan = kRegion / kShards;

struct ShardedGroupFixture : ::testing::Test {
  // servers 0..2 = replicas, 3 = client
// one NIC port per chain
  Cluster cluster{{.num_servers = 4,
                   .server = {.cpu = {.num_cores = 8}, .num_nics = kShards}}};

  std::unique_ptr<ShardedGroup> make_sharded(
      uint32_t shards = kShards,
      ShardRouter router = ShardRouter::range(kShards, kSpan)) {
    std::vector<std::unique_ptr<ReplicationGroup>> chains;
    for (uint32_t s = 0; s < shards; ++s) {
      // Identity addressing: every chain spans the full logical region.
      chains.push_back(make_chain(cluster, {.region_size = kRegion,
                                            .ring_slots = 64,
                                            .max_inflight = 16,
                                            .nic_index = s}));
    }
    return std::make_unique<ShardedGroup>(std::move(chains), router);
  }

  void run(sim::Duration d = sim::msec(50)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST(ShardRouterTest, RangePolicyMapsSpansAndClamps) {
  const ShardRouter r = ShardRouter::range(4, 1000);
  EXPECT_EQ(r.shard_of(0), 0u);
  EXPECT_EQ(r.shard_of(999), 0u);
  EXPECT_EQ(r.shard_of(1000), 1u);
  EXPECT_EQ(r.shard_of(3999), 3u);
  // Past-end offsets clamp to the last shard rather than asserting: the
  // logical region may be slightly larger than shards * span.
  EXPECT_EQ(r.shard_of(4000), 3u);
  EXPECT_EQ(r.shard_of(1u << 30), 3u);
  EXPECT_EQ(r.next_boundary(0), 1000u);
  EXPECT_EQ(r.next_boundary(999), 1000u);
  EXPECT_EQ(r.next_boundary(1000), 2000u);
}

TEST_F(ShardedGroupFixture, IdentityAddressedWritesLandOnEveryReplica) {
  auto g = make_sharded();
  EXPECT_EQ(g->group_size(), 3u);
  EXPECT_EQ(g->region_size(), kRegion);
  // One write per shard's span, all through the same facade.
  for (uint32_t s = 0; s < kShards; ++s) {
    const uint64_t off = s * kSpan + 128;
    const uint64_t tag = 0xBEEF0000 + s;
    g->client_store(off, &tag, sizeof(tag));
    bool done = false;
    g->gwrite(off, sizeof(tag), /*flush=*/true, [&done] { done = true; });
    run();
    ASSERT_TRUE(done) << "shard " << s;
    for (size_t i = 0; i < 3; ++i) {
      uint64_t out = 0;
      g->replica_load(i, off, &out, sizeof(out));
      EXPECT_EQ(out, tag) << "shard " << s << " replica " << i;
    }
    EXPECT_GE(g->shard_stats(s).ops, 1u) << "shard " << s;
    EXPECT_GE(g->shard_stats(s).bytes, sizeof(tag)) << "shard " << s;
  }
}

TEST_F(ShardedGroupFixture, CrossShardGwritevSplitsAndJoins) {
  auto g = make_sharded();
  // Four extents, one per shard: must split into per-shard sub-batches
  // and fire exactly one completion when the last sub-batch lands.
  ExtentVec v;
  for (uint32_t s = 0; s < kShards; ++s) {
    const uint64_t off = s * kSpan + 64;
    const uint64_t tag = 0xAB00 + s;
    g->client_store(off, &tag, sizeof(tag));
    v.push_back({off, sizeof(tag)});
  }
  int dones = 0;
  g->gwritev(v, /*flush=*/true, [&dones] { ++dones; });
  run();
  EXPECT_EQ(dones, 1);
  EXPECT_EQ(g->stats().split_gwritevs, 1u);
  for (uint32_t s = 0; s < kShards; ++s) {
    for (size_t i = 0; i < 3; ++i) {
      uint64_t out = 0;
      g->replica_load(i, s * kSpan + 64, &out, sizeof(out));
      EXPECT_EQ(out, 0xAB00u + s);
    }
  }
}

TEST_F(ShardedGroupFixture, UniformGwritevTakesTheFastPath) {
  auto g = make_sharded();
  ExtentVec v;
  for (int e = 0; e < 4; ++e) {
    const uint64_t off = 2 * kSpan + 64 + static_cast<uint64_t>(e) * 256;
    const uint64_t tag = 0xCD00 + static_cast<uint64_t>(e);
    g->client_store(off, &tag, sizeof(tag));
    v.push_back({off, sizeof(tag)});
  }
  bool done = false;
  g->gwritev(v, /*flush=*/true, [&done] { done = true; });
  run();
  ASSERT_TRUE(done);
  // All extents in shard 2: handed through untouched, no join slot used.
  EXPECT_EQ(g->stats().split_gwritevs, 0u);
  uint64_t out = 0;
  g->replica_load(2, 2 * kSpan + 64, &out, sizeof(out));
  EXPECT_EQ(out, 0xCD00u);
}

TEST_F(ShardedGroupFixture, GflushBroadcastsToEveryChain) {
  auto g = make_sharded();
  // Unflushed writes on two different chains, then one barrier.
  const uint64_t t0 = 0x11, t1 = 0x22;
  g->client_store(16, &t0, 8);
  g->client_store(kSpan + 16, &t1, 8);
  bool w0 = false, w1 = false;
  g->gwrite(16, 8, /*flush=*/false, [&w0] { w0 = true; });
  g->gwrite(kSpan + 16, 8, /*flush=*/false, [&w1] { w1 = true; });
  run();
  ASSERT_TRUE(w0 && w1);
  int flushed = 0;
  g->gflush([&flushed] { ++flushed; });
  run();
  EXPECT_EQ(flushed, 1);
  EXPECT_EQ(g->stats().flush_broadcasts, 1u);
  // Durability barrier held on every chain: crash all replicas, data stays.
  for (size_t i = 0; i < 3; ++i) cluster.server(i).nvm().crash();
  uint64_t out = 0;
  g->replica_load(0, 16, &out, 8);
  EXPECT_EQ(out, t0);
  g->replica_load(1, kSpan + 16, &out, 8);
  EXPECT_EQ(out, t1);
}

TEST_F(ShardedGroupFixture, GmemcpyAndGcasRideTheOwningChain) {
  auto g = make_sharded();
  const uint64_t base = 3 * kSpan;
  const uint64_t val = 0x5151;
  // gMEMCPY copies *replica-side* memory, so the source bytes must be
  // replicated first (gwrite), not just staged in the client region.
  g->client_store(base + 32, &val, 8);
  bool written = false;
  g->gwrite(base + 32, 8, /*flush=*/true, [&written] { written = true; });
  run();
  ASSERT_TRUE(written);
  bool copied = false;
  g->gmemcpy(base + 32, base + 4096, 8, /*flush=*/true,
             [&copied] { copied = true; });
  run();
  ASSERT_TRUE(copied);
  uint64_t out = 0;
  g->replica_load(2, base + 4096, &out, 8);
  EXPECT_EQ(out, val);

  bool cas_ok = false;
  g->gcas(base + 64, 0, 77, ExecMap::all(3),
          [&cas_ok](const CasResult& r) {
            cas_ok = true;
            for (const uint64_t v : r) cas_ok = cas_ok && v == 0;
          });
  run();
  EXPECT_TRUE(cas_ok);
  g->replica_load(1, base + 64, &out, 8);
  EXPECT_EQ(out, 77u);
  EXPECT_GE(g->shard_stats(3).ops, 3u);  // gwrite + gmemcpy + gcas
}

TEST_F(ShardedGroupFixture, StopAbortsLiveJoinsAndChildren) {
  auto g = make_sharded();
  ExtentVec v;
  for (uint32_t s = 0; s < kShards; ++s) v.push_back({s * kSpan, 8});
  int dones = 0;
  g->gwritev(v, /*flush=*/true, [&dones] { ++dones; });
  g->stop();  // before the loop runs: the join must die silently
  run();
  EXPECT_EQ(dones, 0);
  EXPECT_GE(g->aborted_ops(), 1u);
  // Stopped group drops new ops without invoking completions.
  g->gwrite(0, 8, true, [&dones] { ++dones; });
  run();
  EXPECT_EQ(dones, 0);
}

TEST_F(ShardedGroupFixture, LocalAccessorsSplitAtRoutingBoundaries) {
  auto g = make_sharded();
  // A buffer spanning a range boundary: client_store/client_load must
  // split it across the owning chains transparently.
  std::vector<uint8_t> in(512);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  const uint64_t off = kSpan - 256;  // halves in shard 0 and shard 1
  g->client_store(off, in.data(), static_cast<uint32_t>(in.size()));
  std::vector<uint8_t> out(in.size(), 0);
  g->client_load(off, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace hyperloop::core
