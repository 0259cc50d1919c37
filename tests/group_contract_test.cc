// The primitive contract of ReplicationGroup (paper Table 1, group.h),
// checked the same way on every single-chain backend: the offloaded chain
// and fan-out, Naïve-RDMA in its three wakeup modes, and kernel TCP.
// gWRITE replicates and a flushed one is durable; gMEMCPY copies on every
// replica and in the client's copy; gCAS swaps, reports each replica's old
// value (0 where the execute map skips it) and can undo a partial
// acquisition; pipelines past the credit window and the pre-posted rings
// drain; 1- to 3-replica chains work; groups sharing servers stay apart;
// only the CPU baselines put replica CPU on the path; and stop(), also
// from inside a callback, drops every pending op uncalled. Ordering and
// gFLUSH are group_order_test's.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backends.h"

namespace hyperloop::core {
namespace {

constexpr uint64_t kRegion = 1 << 20;
// Credit window. HyperLoop and fan-out pre-post 4x it: 64-slot rings.
constexpr uint32_t kWindow = 16;

class GroupContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  Cluster cluster{backend_cluster_config()};

  std::unique_ptr<BackendGroup> make(size_t replicas = 3) {
    return make_backend(GetParam(), cluster, kRegion, kWindow, replicas);
  }

  void run(sim::Duration d = sim::msec(200)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  /// Replicates `v` to the 8 bytes at `offset` and waits for the ACK.
  void put(BackendGroup& g, uint64_t offset, uint64_t v, bool flush = false) {
    bool done = false;
    g.gwrite_bytes(offset, &v, 8, flush, [&] { done = true; });
    run();
    ASSERT_TRUE(done);
  }

  /// gCAS on `g` that waits for its result map.
  std::vector<uint64_t> cas(BackendGroup& g, uint64_t offset,
                            uint64_t expected, uint64_t desired,
                            ExecMap exec) {
    std::vector<uint64_t> result;
    g.gcas(offset, expected, desired, exec,
           [&](const CasResult& r) { result.assign(r.begin(), r.end()); });
    run();
    return result;
  }
};

uint64_t word(const BackendGroup& g, size_t replica, uint64_t offset) {
  uint64_t v = 0;
  g.replica_load(replica, offset, &v, 8);
  return v;
}

std::string bytes(const BackendGroup& g, size_t replica, uint64_t offset,
                  size_t len) {
  std::string out(len, '\0');
  g.replica_load(replica, offset, out.data(), static_cast<uint32_t>(len));
  return out;
}

TEST_P(GroupContractTest, GwriteReachesEveryReplica) {
  auto g = make();
  const std::string data = "group-contract-gwrite";
  g->client_store(100, data.data(), static_cast<uint32_t>(data.size()));
  bool done = false;
  g->gwrite(100, static_cast<uint32_t>(data.size()), false,
            [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bytes(*g, i, 100, data.size()), data) << "replica " << i;
  }
  EXPECT_EQ(g->total_rnr_stalls(), 0u);
}

// A flushed gWRITE is durable on every replica when it is acknowledged;
// an unflushed one issued after it is acknowledged from volatile memory
// and a crash loses it.
TEST_P(GroupContractTest, FlushedGwriteSurvivesACrashAndUnflushedIsLost) {
  auto g = make();
  const std::string flushed = "flushed-gwrite";
  const std::string unflushed = "unflushed-gwrite";
  const auto len = [](const std::string& s) {
    return static_cast<uint32_t>(s.size());
  };
  int done = 0;
  g->gwrite_bytes(0, flushed.data(), len(flushed), true, [&] {
    ++done;
    g->gwrite_bytes(4096, unflushed.data(), len(unflushed), false,
                    [&] { ++done; });
  });
  run();
  ASSERT_EQ(done, 2);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    EXPECT_EQ(bytes(*g, i, 0, flushed.size()), flushed) << "replica " << i;
    EXPECT_NE(bytes(*g, i, 4096, unflushed.size()), unflushed)
        << "replica " << i;
  }
}

TEST_P(GroupContractTest, GmemcpyCopiesOnEveryReplicaAndTheClient) {
  auto g = make();
  const std::string data = "log-record-body";
  const auto len = static_cast<uint32_t>(data.size());
  bool copied = false;
  g->gwrite_bytes(64, data.data(), len, true, [&] {
    g->gmemcpy(64, 8192, len, true, [&] { copied = true; });
  });
  run();
  ASSERT_TRUE(copied);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bytes(*g, i, 8192, data.size()), data) << "replica " << i;
  }
  std::string cli(data.size(), '\0');
  g->client_load(8192, cli.data(), len);
  EXPECT_EQ(cli, data);
}

TEST_P(GroupContractTest, GcasSwapsAndReportsTheOldValues) {
  auto g = make();
  put(*g, 512, 5);
  EXPECT_EQ(cas(*g, 512, 5, 77, ExecMap::all(3)),
            (std::vector<uint64_t>{5, 5, 5}));
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(word(*g, i, 512), 77u) << i;
}

TEST_P(GroupContractTest, GcasMismatchReportsTheHolderWithoutSwapping) {
  auto g = make();
  put(*g, 512, 123);
  EXPECT_EQ(cas(*g, 512, 0, 55, ExecMap::all(3)),
            (std::vector<uint64_t>{123, 123, 123}));
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(word(*g, i, 512), 123u) << i;
}

TEST_P(GroupContractTest, ExecuteMapSkipsAMiddleReplica) {
  auto g = make();
  put(*g, 512, 5);
  EXPECT_EQ(cas(*g, 512, 5, 9, ExecMap::one(0).set(2)),
            (std::vector<uint64_t>{5, 0, 5}));
  EXPECT_EQ(word(*g, 0, 512), 9u);
  EXPECT_EQ(word(*g, 1, 512), 5u);
  EXPECT_EQ(word(*g, 2, 512), 9u);
}

// Fan-out's primary CAS is the client's one-sided CAS, not a forwarded
// one, so skipping replica 0 takes a path of its own there.
TEST_P(GroupContractTest, ExecuteMapSkipsReplicaZero) {
  auto g = make();
  put(*g, 512, 5);
  EXPECT_EQ(cas(*g, 512, 5, 9, ExecMap::one(1).set(2)),
            (std::vector<uint64_t>{0, 5, 5}));
  EXPECT_EQ(word(*g, 0, 512), 5u);
  EXPECT_EQ(word(*g, 1, 512), 9u);
  EXPECT_EQ(word(*g, 2, 512), 9u);
}

// Group locking's selective undo (§4.2): an acquisition that fails on one
// replica is rolled back with a gCAS on the replicas where it succeeded.
TEST_P(GroupContractTest, PartialAcquisitionIsUndoneWhereItSucceeded) {
  auto g = make();
  // Replica 1 holds a stale lock of another client.
  const uint64_t other = 42;
  g->replica_server(1).mem().write(g->replica_region_base(1) + 512, &other,
                                   8);
  const std::vector<uint64_t> got = cas(*g, 512, 0, 7, ExecMap::all(3));
  ASSERT_EQ(got, (std::vector<uint64_t>{0, 42, 0}));
  ExecMap undo = ExecMap::none();
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == 0) undo.set(i);
  }
  EXPECT_EQ(cas(*g, 512, 7, 0, undo), (std::vector<uint64_t>{7, 0, 7}));
  EXPECT_EQ(word(*g, 0, 512), 0u);
  EXPECT_EQ(word(*g, 1, 512), 42u);
  EXPECT_EQ(word(*g, 2, 512), 0u);
}

// 300 writes issued back to back: most park for a credit, and the
// offloaded backends' 64-slot rings wrap several times, so the refill
// must keep re-arming them (a burst this fast outruns the 100 µs refill
// and stalls on RNR until it does).
TEST_P(GroupContractTest, PipelinedWritesPastTheRingsAllLand) {
  auto g = make();
  constexpr int kWrites = 300;
  int done = 0;
  for (int k = 0; k < kWrites; ++k) {
    const uint64_t v = 1000 + static_cast<uint64_t>(k);
    g->gwrite_bytes(static_cast<uint64_t>(k) * 16, &v, 8, false,
                    [&] { ++done; });
  }
  run(sim::seconds(1));
  ASSERT_EQ(done, kWrites);
  for (int k = 0; k < kWrites; ++k) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(word(*g, i, static_cast<uint64_t>(k) * 16),
                1000 + static_cast<uint64_t>(k))
          << "write " << k << " replica " << i;
    }
  }
}

// Nothing is promised across primitives (group.h), so each of 50
// pipelined op-chains sequences its gMEMCPY and gCAS behind its gWRITE's
// ACK, the way the WAL layers an apply behind its append.
TEST_P(GroupContractTest, MixedPrimitivesChainedByTheirAcksInterleave) {
  auto g = make();
  constexpr int kChains = 50;
  int done = 0;
  for (int k = 0; k < kChains; ++k) {
    const uint64_t off = static_cast<uint64_t>(k) * 64;
    const uint64_t v = static_cast<uint64_t>(k) + 1;
    g->gwrite_bytes(off, &v, 8, true, [&, off, v] {
      ++done;
      g->gmemcpy(off, off + 8, 8, true, [&] { ++done; });
      g->gcas(off + 32, 0, v + 1, ExecMap::all(3),
              [&](const CasResult&) { ++done; });
    });
  }
  run(sim::seconds(1));
  ASSERT_EQ(done, 3 * kChains);
  for (int k = 0; k < kChains; ++k) {
    const uint64_t off = static_cast<uint64_t>(k) * 64;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(word(*g, i, off + 8), static_cast<uint64_t>(k) + 1) << i;
      EXPECT_EQ(word(*g, i, off + 32), static_cast<uint64_t>(k) + 2) << i;
    }
  }
}

TEST_P(GroupContractTest, TwoReplicaChainWorks) {
  auto g = make(2);
  put(*g, 0, 11, /*flush=*/true);
  EXPECT_EQ(cas(*g, 64, 0, 5, ExecMap::all(2)),
            (std::vector<uint64_t>{0, 0}));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(word(*g, i, 64), 5u) << i;
    g->replica_server(i).nvm().crash();
    EXPECT_EQ(word(*g, i, 0), 11u) << i;
  }
}

TEST_P(GroupContractTest, OneReplicaChainWorks) {
  if (GetParam() == Backend::kFanout) {
    GTEST_SKIP() << "fan-out needs a primary and at least one backup";
  }
  auto g = make(1);
  put(*g, 0, 11, /*flush=*/true);
  EXPECT_EQ(cas(*g, 64, 0, 5, ExecMap::all(1)), (std::vector<uint64_t>{0}));
  EXPECT_EQ(word(*g, 0, 64), 5u);
  g->replica_server(0).nvm().crash();
  EXPECT_EQ(word(*g, 0, 0), 11u);
}

TEST_P(GroupContractTest, TwoGroupsOnOneSetOfServersStayApart) {
  auto g1 = make();
  auto g2 = make();
  put(*g1, 0, 1);
  put(*g2, 0, 2);
  EXPECT_EQ(cas(*g1, 512, 0, 11, ExecMap::all(3)),
            (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ(cas(*g2, 512, 0, 22, ExecMap::all(3)),
            (std::vector<uint64_t>{0, 0, 0}));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(word(*g1, i, 0), 1u) << i;
    EXPECT_EQ(word(*g2, i, 0), 2u) << i;
    EXPECT_EQ(word(*g1, i, 512), 11u) << i;
    EXPECT_EQ(word(*g2, i, 512), 22u) << i;
  }
}

// The paper's thesis: the offloaded backends keep replica CPU off the
// path (their only process is the periodic ring refill), while the CPU
// baselines' handler runs on every replica for every op.
TEST_P(GroupContractTest, ReplicaCpuIsOnThePathOnlyForTheCpuBaselines) {
  auto g = make();
  const bool offloaded =
      GetParam() == Backend::kHyperLoop || GetParam() == Backend::kFanout;
  int done = 0;
  for (int k = 0; k < 100; ++k) g->gwrite(0, 256, true, [&] { ++done; });
  run(sim::msec(20));
  ASSERT_EQ(done, 100);
  for (size_t i = 0; i < 3; ++i) {
    if (offloaded) {
      EXPECT_LT(g->replica_cpu_time(i), sim::msec(2)) << "replica " << i;
    } else {
      EXPECT_GT(g->replica_cpu_time(i), sim::usec(100)) << "replica " << i;
    }
  }
}

// stop() with ops of every primitive in flight and parked (group.h): each
// op either completed before stop() or is counted in aborted_ops() and
// never calls back, whatever the datapath still had in the network or on
// a CPU. The group stops right after its first completions, when every
// backend still has most ops pending: on TCP, commands on their way to
// the replicas and ACKs queued on the client's CPU.
TEST_P(GroupContractTest, StopDropsEveryPendingOpUncalled) {
  auto g = make();
  constexpr uint64_t kEach = 48;
  constexpr uint64_t kFiredBeforeStop = 8;
  uint64_t fired = 0;
  bool stopped = false;
  const auto fire = [&] {
    EXPECT_FALSE(stopped) << "a callback ran after stop()";
    ++fired;
  };
  for (uint64_t k = 0; k < kEach; ++k) {
    g->gwrite(k * 64, 8, k % 2 == 0, fire);
    g->gmemcpy(k * 64, k * 64 + 32, 8, false, fire);
    g->gcas(k * 64 + 16, 0, 1, ExecMap::all(3),
            [&](const CasResult&) { fire(); });
  }
  const sim::Time deadline = cluster.loop().now() + sim::seconds(1);
  while (fired < kFiredBeforeStop && cluster.loop().now() < deadline) {
    run(sim::usec(1));
  }
  ASSERT_GE(fired, kFiredBeforeStop);
  g->stop();
  stopped = true;
  const uint64_t aborted = g->aborted_ops();
  EXPECT_GT(aborted, 0u);
  EXPECT_EQ(fired + aborted, 3 * kEach);
  run();
  g->stop();
  EXPECT_EQ(g->aborted_ops(), aborted);
  EXPECT_EQ(fired + aborted, 3 * kEach);
}

// The same, with stop() called from inside a completion callback: the
// completion path that ran the callback must not touch the QPs and CQs
// stop() has just destroyed, nor fire another callback.
TEST_P(GroupContractTest, StopInsideACallbackDropsTheRestUncalled) {
  auto g = make();
  constexpr uint64_t kEach = 48;
  constexpr uint64_t kStopAt = 8;
  uint64_t fired = 0;
  const auto fire = [&] {
    if (++fired == kStopAt) g->stop();
  };
  for (uint64_t k = 0; k < kEach; ++k) {
    g->gwrite(k * 64, 8, k % 2 == 0, fire);
    g->gmemcpy(k * 64, k * 64 + 32, 8, false, fire);
    g->gcas(k * 64 + 16, 0, 1, ExecMap::all(3),
            [&](const CasResult&) { fire(); });
  }
  run(sim::seconds(1));
  EXPECT_EQ(fired, kStopAt);
  EXPECT_EQ(fired + g->aborted_ops(), 3 * kEach);
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupContractTest,
                         ::testing::ValuesIn(kSingleChainBackends),
                         backend_name);

// The offloaded backends with a credit window as wide as their 16-slot
// pre-posted rings: 600 gWRITE + gMEMCPY + gCAS triples issued back to
// back outrun the refill, so every ring runs dry and stalls on RNR. A
// slot's descriptors are patched only through its RECV, which the refill
// posts after the slot's previous chain has finished, so every op still
// lands on every replica.
class FullRingWindowTest : public ::testing::TestWithParam<Backend> {};

TEST_P(FullRingWindowTest, PipelinedPrimitivesAllLandOnEveryReplica) {
  Cluster cluster{backend_cluster_config()};
  constexpr uint32_t kSlots = 16;
  std::unique_ptr<BackendGroup> g;
  if (GetParam() == Backend::kHyperLoop) {
    g = std::make_unique<HyperLoopGroup>(
        cluster.server(3), chain_replicas(cluster),
        HyperLoopGroup::Config{.region_size = kRegion,
                               .ring_slots = kSlots,
                               .max_inflight = kSlots});
  } else {
    g = std::make_unique<FanoutGroup>(
        cluster.server(3), chain_replicas(cluster),
        FanoutGroup::Config{.region_size = kRegion,
                            .ring_slots = kSlots,
                            .max_inflight = kSlots});
  }
  const auto run = [&](sim::Duration d) {
    cluster.loop().run_until(cluster.loop().now() + d);
  };
  constexpr uint64_t kOps = 600;
  constexpr uint64_t kWrites = 64 << 10;
  constexpr uint64_t kCopies = 128 << 10;
  constexpr uint64_t kCas = 192 << 10;
  // The gMEMCPY sources, replicated before the burst.
  std::vector<uint64_t> src(kOps);
  for (uint64_t k = 0; k < kOps; ++k) src[k] = 5000 + k;
  bool loaded = false;
  g->gwrite_bytes(0, src.data(), kOps * 8, false, [&] { loaded = true; });
  run(sim::msec(10));
  ASSERT_TRUE(loaded);

  uint64_t done = 0;
  for (uint64_t k = 0; k < kOps; ++k) {
    const uint64_t v = 1000 + k;
    g->gwrite_bytes(kWrites + k * 8, &v, 8, false, [&] { ++done; });
    g->gmemcpy(k * 8, kCopies + k * 8, 8, false, [&] { ++done; });
    g->gcas(kCas + k * 8, 0, k + 1, ExecMap::all(3),
            [&](const CasResult& r) {
              ++done;
              for (uint64_t old : r) EXPECT_EQ(old, 0u);
            });
  }
  run(sim::seconds(2));
  ASSERT_EQ(done, 3 * kOps);
  EXPECT_GT(g->total_rnr_stalls(), 0u);
  for (uint64_t k = 0; k < kOps; ++k) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(word(*g, i, kWrites + k * 8), 1000 + k) << k << " " << i;
      EXPECT_EQ(word(*g, i, kCopies + k * 8), 5000 + k) << k << " " << i;
      EXPECT_EQ(word(*g, i, kCas + k * 8), k + 1) << k << " " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FullRingWindowTest,
                         ::testing::Values(Backend::kHyperLoop,
                                           Backend::kFanout),
                         backend_name);

}  // namespace
}  // namespace hyperloop::core
