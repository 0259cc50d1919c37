// The ordering contract of ReplicationGroup (group.h): ops of one
// primitive issued on one group execute at every replica in issue order,
// including ops parked for a credit. GroupLockManager pipelines dependent
// gCAS on it, and releases write locks with a gMEMCPY issued right behind
// a record's apply, so every backend is held to it here for both: chains
// of gcas(i -> i+1) issued back to back far past the credit window must
// each find exactly i on every replica they execute on, and a chain of
// dependent gMEMCPYs must carry its seed to the end. gWRITEs of mixed
// sizes must complete in issue order (the WAL's commit batches). gFLUSH,
// the barrier WAL truncation relies on, must make the unflushed writes
// before it durable on every replica.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "backends.h"

namespace hyperloop::core {
namespace {

constexpr uint64_t kRegion = 1 << 20;
constexpr uint32_t kWindow = 8;  // credit window: most ops below park
constexpr uint64_t kOps = 48;
constexpr size_t kReplicas = 3;
// One word in each half of the region, so each chain of the sharded
// group carries one of them.
constexpr uint64_t kWords[] = {kRegion / 4, 3 * kRegion / 4};

class GroupOrderTest : public ::testing::TestWithParam<Backend> {
 protected:
  Cluster cluster{backend_cluster_config()};
  std::unique_ptr<ReplicationGroup> group =
      make_group(GetParam(), cluster, kRegion, kWindow);
  uint64_t completed = 0;

  /// gcas(expected -> expected + 1) that must find `expected` on every
  /// replica in `exec` (and report 0 for the others).
  void step(uint64_t offset, uint64_t expected, ExecMap exec) {
    group->gcas(offset, expected, expected + 1, exec,
                [this, offset, expected, exec](const CasResult& r) {
                  for (size_t i = 0; i < r.size(); ++i) {
                    EXPECT_EQ(r[i], exec.test(i) ? expected : 0)
                        << "replica " << i << " word " << offset;
                  }
                  ++completed;
                });
  }

  void run() {
    cluster.loop().run_until(cluster.loop().now() + sim::msec(100));
  }

  uint64_t word(size_t replica, uint64_t offset) const {
    uint64_t v = 0;
    group->replica_load(replica, offset, &v, 8);
    return v;
  }
};

TEST_P(GroupOrderTest, AllReplicaCasChainsRunInIssueOrder) {
  for (uint64_t i = 0; i < kOps; ++i) {
    for (uint64_t w : kWords) step(w, i, ExecMap::all(kReplicas));
  }
  run();
  EXPECT_EQ(completed, kOps * std::size(kWords));
  for (size_t r = 0; r < kReplicas; ++r) {
    for (uint64_t w : kWords) EXPECT_EQ(word(r, w), kOps);
  }
}

TEST_P(GroupOrderTest, InterleavedOneReplicaChainsRunInIssueOrder) {
  for (uint64_t i = 0; i < kOps; ++i) {
    for (size_t r = 0; r < kReplicas; ++r) {
      for (uint64_t w : kWords) step(w, i, ExecMap::one(r));
    }
  }
  run();
  EXPECT_EQ(completed, kOps * kReplicas * std::size(kWords));
  for (size_t r = 0; r < kReplicas; ++r) {
    for (uint64_t w : kWords) EXPECT_EQ(word(r, w), kOps);
  }
}

TEST_P(GroupOrderTest, OpIssuedFromCompletionQueuesBehindParkedOps) {
  // The first op's completion frees a credit while ops 1..kOps-1 wait
  // for one; the op it issues must still run after all of them.
  const uint64_t w = kWords[0];
  const ExecMap all = ExecMap::all(kReplicas);
  group->gcas(w, 0, 1, all, [this, w, all](const CasResult&) {
    ++completed;
    step(w, kOps, all);
  });
  for (uint64_t i = 1; i < kOps; ++i) step(w, i, all);
  run();
  EXPECT_EQ(completed, kOps + 1);
  for (size_t r = 0; r < kReplicas; ++r) EXPECT_EQ(word(r, w), kOps + 1);
}

TEST_P(GroupOrderTest, DependentMemcpyChainsRunInIssueOrder) {
  // Copy i moves word w+8i to w+8(i+1). A copy that ran ahead of the one
  // feeding it would carry a zero forward instead of the seed.
  constexpr uint64_t kSeed = 0x5EED0000C0FFEE01;
  for (uint64_t w : kWords) {
    group->gwrite_bytes(w, &kSeed, 8, /*flush=*/true, [this] { ++completed; });
  }
  run();
  ASSERT_EQ(completed, std::size(kWords));
  for (uint64_t i = 0; i < kOps; ++i) {
    for (uint64_t w : kWords) {
      group->gmemcpy(w + 8 * i, w + 8 * (i + 1), 8, /*flush=*/false,
                     [this] { ++completed; });
    }
  }
  run();
  EXPECT_EQ(completed, (kOps + 1) * std::size(kWords));
  for (size_t r = 0; r < kReplicas; ++r) {
    for (uint64_t w : kWords) {
      EXPECT_EQ(word(r, w + 8 * kOps), kSeed) << "replica " << r;
    }
  }
}

TEST_P(GroupOrderTest, MixedSizeWritesCompleteInIssueOrder) {
  // Flushed gWRITEs alternating between 4 KB and one word: a short write
  // costs a CPU-forwarding backend less than the long one before it, yet
  // must not complete ahead of it. The WAL counts on its commit batches
  // completing in issue order.
  constexpr uint32_t kLong = 4096;
  std::vector<uint8_t> bytes(kLong);
  for (size_t k = 0; k < bytes.size(); ++k) bytes[k] = static_cast<uint8_t>(k);
  std::vector<uint64_t> order[std::size(kWords)];
  for (uint64_t i = 0; i < kOps; ++i) {
    const uint32_t len = i % 2 == 0 ? kLong : 8;
    for (size_t c = 0; c < std::size(kWords); ++c) {
      group->gwrite_bytes(kWords[c] + i * kLong, bytes.data(), len,
                          /*flush=*/true,
                          [&order, c, i] { order[c].push_back(i); });
    }
  }
  run();
  for (const std::vector<uint64_t>& o : order) {
    ASSERT_EQ(o.size(), kOps);
    for (uint64_t i = 0; i < kOps; ++i) {
      EXPECT_EQ(o[i], i) << "completion " << i;
    }
  }
}

TEST_P(GroupOrderTest, GflushMakesEarlierOpsDurable) {
  // Unflushed gWRITEs, then gFLUSH: the flush is a durability barrier at
  // each replica (group.h), so the bytes survive a crash of every one.
  constexpr uint64_t kValue = 0xD0AB1E00FEEDF00D;
  for (uint64_t w : kWords) {
    group->gwrite_bytes(w, &kValue, 8, /*flush=*/false, {});
  }
  group->gflush([this] { ++completed; });
  run();
  ASSERT_EQ(completed, 1u);
  for (size_t r = 0; r < kReplicas; ++r) {
    cluster.server(r).nvm().crash();
    for (uint64_t w : kWords) EXPECT_EQ(word(r, w), kValue) << "replica " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupOrderTest,
                         ::testing::ValuesIn(kAllBackends), backend_name);

}  // namespace
}  // namespace hyperloop::core
