#include "core/hyperloop_group.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

struct GroupFixture : ::testing::Test {
  // servers 0..2 = replicas, 3 = client
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  HyperLoopGroup::Config gcfg{
      .region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16};

  std::unique_ptr<HyperLoopGroup> make_group(size_t replicas = 3) {
    return std::make_unique<HyperLoopGroup>(
        cluster.server(3), chain_replicas(cluster, replicas), gcfg);
  }

  void run(sim::Duration d = sim::msec(50)) { cluster.loop().run_until(cluster.loop().now() + d); }
};

TEST_F(GroupFixture, GwriteReplicatesToAll) {
  auto g = make_group();
  const std::string data = "hyperloop-gwrite-payload";
  g->client_store(100, data.data(), data.size());
  bool done = false;
  g->gwrite(100, data.size(), false, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    std::string out(data.size(), '\0');
    g->replica_load(i, 100, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
  EXPECT_EQ(g->total_rnr_stalls(), 0u);
}

TEST_F(GroupFixture, GwriteWithFlushIsDurableEverywhere) {
  auto g = make_group();
  const std::string data = "must-survive-crash";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    std::string out(data.size(), '\0');
    g->replica_load(i, 0, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
}

TEST_F(GroupFixture, GwriteWithoutFlushCanBeLost) {
  auto g = make_group();
  const std::string data = "volatile";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), false, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  // ACKed, but a crash on a replica loses the un-flushed bytes.
  g->replica_server(1).nvm().crash();
  std::string out(data.size(), '\0');
  g->replica_load(1, 0, out.data(), out.size());
  EXPECT_NE(out, data);
}

TEST_F(GroupFixture, GmemcpyCopiesOnEveryReplica) {
  auto g = make_group();
  const std::string data = "log-record-body";
  g->client_store(64, data.data(), data.size());
  bool wrote = false;
  g->gwrite(64, data.size(), true, [&] { wrote = true; });
  run();
  ASSERT_TRUE(wrote);

  bool copied = false;
  g->gmemcpy(64, 4096, data.size(), true, [&] { copied = true; });
  run();
  ASSERT_TRUE(copied);
  for (size_t i = 0; i < 3; ++i) {
    std::string out(data.size(), '\0');
    g->replica_load(i, 4096, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
  // The client's own copy also moved (it is the head of the chain).
  std::string cli(data.size(), '\0');
  g->client_load(4096, cli.data(), cli.size());
  EXPECT_EQ(cli, data);
}

// Each replica's NIC executes a gMEMCPY as a local DMA copy and charges
// it to its payload_bytes_copied: on an idle chain one gMEMCPY of L bytes
// raises the replicas' sum by exactly L per replica (the descriptors the
// chain forwards travel as SENDs, which are not data-plane copies).
TEST_F(GroupFixture, GmemcpyChargesOneLocalCopyPerReplica) {
  auto g = make_group();
  constexpr uint32_t kLen = 3000;
  auto replicas_copied = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < g->group_size(); ++i) {
      n += g->replica_server(i).nic().counters().payload_bytes_copied;
    }
    return n;
  };
  const uint64_t before = replicas_copied();
  bool copied = false;
  g->gmemcpy(0, 64 << 10, kLen, false, [&] { copied = true; });
  run();
  ASSERT_TRUE(copied);
  EXPECT_EQ(replicas_copied() - before, uint64_t{kLen} * g->group_size());
}

TEST_F(GroupFixture, GcasAcquiresOnAllReplicas) {
  auto g = make_group();
  std::vector<uint64_t> result;
  g->gcas(512, 0, 77, ExecMap::all(3),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  for (uint64_t v : result) EXPECT_EQ(v, 0u);  // old value was 0 everywhere
  for (size_t i = 0; i < 3; ++i) {
    uint64_t v = 0;
    g->replica_load(i, 512, &v, 8);
    EXPECT_EQ(v, 77u);
  }
}

TEST_F(GroupFixture, GcasReportsMismatch) {
  auto g = make_group();
  // Pre-set replica values via gwrite.
  const uint64_t held = 123;
  g->client_store(512, &held, 8);
  bool wrote = false;
  g->gwrite(512, 8, false, [&] { wrote = true; });
  run();
  ASSERT_TRUE(wrote);

  std::vector<uint64_t> result;
  g->gcas(512, 0, 55, ExecMap::all(3),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  for (uint64_t v : result) EXPECT_EQ(v, 123u);  // lock was held
  for (size_t i = 0; i < 3; ++i) {
    uint64_t v = 0;
    g->replica_load(i, 512, &v, 8);
    EXPECT_EQ(v, 123u);  // unchanged
  }
}

TEST_F(GroupFixture, GcasExecuteMapSkipsReplicas) {
  auto g = make_group();
  std::vector<uint64_t> result;
  g->gcas(512, 0, 9, ExecMap::one(0).set(2),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  uint64_t v0 = 0, v1 = 0, v2 = 0;
  g->replica_load(0, 512, &v0, 8);
  g->replica_load(1, 512, &v1, 8);
  g->replica_load(2, 512, &v2, 8);
  EXPECT_EQ(v0, 9u);
  EXPECT_EQ(v1, 0u);  // skipped
  EXPECT_EQ(v2, 9u);
}

TEST_F(GroupFixture, GcasUndoAfterPartialAcquire) {
  auto g = make_group();
  // Make replica 1 hold the lock with a different value, via a direct
  // write into its region (simulating another client's stale lock).
  const uint64_t other = 42;
  const rdma::Addr base = g->replica_region_base(1);
  g->replica_server(1).mem().write(base + 512, &other, 8);

  std::vector<uint64_t> result;
  g->gcas(512, 0, 7, ExecMap::all(3),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], 0u);
  EXPECT_EQ(result[1], 42u);  // failed there
  EXPECT_EQ(result[2], 0u);

  // Undo on the replicas where it succeeded (result == expected).
  ExecMap undo_map = ExecMap::none();
  if (result[0] == 0) undo_map.set(0);
  if (result[2] == 0) undo_map.set(2);
  bool undone = false;
  g->gcas(512, 7, 0, undo_map, [&](const CasResult&) { undone = true; });
  run();
  ASSERT_TRUE(undone);
  uint64_t v0 = 0, v2 = 0;
  g->replica_load(0, 512, &v0, 8);
  g->replica_load(2, 512, &v2, 8);
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v2, 0u);
}

TEST_F(GroupFixture, GflushMakesPriorWritesDurable) {
  auto g = make_group();
  const std::string data = "flush-later";
  g->client_store(0, data.data(), data.size());
  bool wrote = false, flushed = false;
  g->gwrite(0, data.size(), false, [&] { wrote = true; });
  g->gflush([&] { flushed = true; });
  run();
  ASSERT_TRUE(wrote);
  ASSERT_TRUE(flushed);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    std::string out(data.size(), '\0');
    g->replica_load(i, 0, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
}

TEST_F(GroupFixture, ManyPipelinedWritesAllLandInOrder) {
  auto g = make_group();
  const int n = 300;  // > ring_slots to exercise refill
  int done = 0;
  for (int k = 0; k < n; ++k) {
    const uint64_t off = 64 + static_cast<uint64_t>(k) * 16;
    uint64_t val = 1000 + static_cast<uint64_t>(k);
    g->client_store(off, &val, 8);
    g->gwrite(off, 8, false, [&] { ++done; });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(500));
  ASSERT_EQ(done, n);
  for (int k = 0; k < n; ++k) {
    const uint64_t off = 64 + static_cast<uint64_t>(k) * 16;
    for (size_t i = 0; i < 3; ++i) {
      uint64_t v = 0;
      g->replica_load(i, off, &v, 8);
      EXPECT_EQ(v, 1000u + static_cast<uint64_t>(k));
    }
  }
}

TEST_F(GroupFixture, SingleReplicaGroupWorks) {
  auto g = make_group(1);
  const std::string data = "solo";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  std::string out(data.size(), '\0');
  g->replica_load(0, 0, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(GroupFixture, TwoReplicaGroupWorks) {
  auto g = make_group(2);
  std::vector<uint64_t> result;
  g->gcas(0, 0, 5, ExecMap::all(2),
          [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
  run();
  ASSERT_EQ(result.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    uint64_t v = 0;
    g->replica_load(i, 0, &v, 8);
    EXPECT_EQ(v, 5u);
  }
}

TEST_F(GroupFixture, NoReplicaCpuOnCriticalPath) {
  auto g = make_group();
  // Measure replica CPU before/after a burst of operations. Only the
  // periodic refill task may consume CPU, and it is tiny.
  sim::Duration before = 0;
  for (size_t i = 0; i < 3; ++i) {
    before += g->replica_server(i).sched().total_busy();
  }
  int done = 0;
  for (int k = 0; k < 100; ++k) {
    g->gwrite(0, 256, true, [&] { ++done; });
  }
  run(sim::msec(20));
  ASSERT_EQ(done, 100);
  sim::Duration after = 0;
  for (size_t i = 0; i < 3; ++i) {
    after += g->replica_server(i).sched().total_busy();
  }
  // 3 replicas * 20ms * 8 cores = 480ms of CPU capacity; the refill loop
  // uses ~2us per 20us per replica -> ~6ms. Anything near-zero passes.
  EXPECT_LT(after - before, sim::msec(10));
}

TEST_F(GroupFixture, MixedPrimitivesInterleave) {
  // Different primitives ride different pre-posted rings, so ordering
  // across primitives is only guaranteed through completion callbacks
  // (exactly how the WAL layers Append before ExecuteAndAdvance). Pipeline
  // 50 independent op-chains, each internally sequenced by its ACKs.
  auto g = make_group();
  int done = 0;
  for (int k = 0; k < 50; ++k) {
    const uint64_t off = static_cast<uint64_t>(k) * 64;
    uint64_t v = static_cast<uint64_t>(k) + 1;
    g->client_store(off, &v, 8);
    g->gwrite(off, 8, true, [&, off, v] {
      ++done;
      g->gmemcpy(off, off + 8, 8, true, [&] { ++done; });
      g->gcas(off + 32, 0, v + 1, ExecMap::all(3),
              [&](const CasResult&) { ++done; });
    });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(500));
  EXPECT_EQ(done, 150);
  // Spot-check one of each effect on the last replica.
  uint64_t v = 0;
  g->replica_load(2, 49 * 64 + 8, &v, 8);
  EXPECT_EQ(v, 50u);
  g->replica_load(2, 49 * 64 + 32, &v, 8);
  EXPECT_EQ(v, 51u);
}

// stop() tears a group down with ops in flight (group.h). A chain's local
// DMA copy and local CAS are timed NIC events on a loopback QP; one still
// pending when stop() destroys that QP must be dropped when it fires.
TEST_F(GroupFixture, StopDuringLoopbackGmemcpyDropsTheCopy) {
  auto g = make_group();
  bool copied = false;
  g->gmemcpy(0, 512 << 10, 256 << 10, /*flush=*/true, [&] { copied = true; });
  run(sim::usec(10));
  g->stop();
  run();
  EXPECT_FALSE(copied);
  EXPECT_EQ(g->aborted_ops(), 1u);
}

TEST_F(GroupFixture, StopDuringLocalCasDropsTheCas) {
  auto g = make_group();
  bool fired = false;
  g->gcas(0, 0, 1, ExecMap::all(3), [&](const CasResult&) { fired = true; });
  run(sim::nsec(1600));
  g->stop();
  run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(g->aborted_ops(), 1u);
}

}  // namespace
}  // namespace hyperloop::core
