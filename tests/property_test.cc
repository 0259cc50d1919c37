// Property tests over randomized operation sequences (parameterized by
// seed): replica convergence, durability of acknowledged flushes under
// crash, and transaction atomicity under crash + replay.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "chain_setup.h"
#include "core/txn.h"
#include "core/wal.h"
#include "sim/rng.h"

namespace hyperloop::core {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  PropertyTest() {
    Cluster::Config cc;
    cc.num_servers = 4;
    cc.seed = GetParam();
    cluster_ = std::make_unique<Cluster>(cc);
    group_ = make_chain(
        *cluster_,
        {.region_size = 1 << 20, .ring_slots = 256, .max_inflight = 32});
    rng_ = std::make_unique<sim::Rng>(GetParam() * 7919 + 13);
  }

  void run(sim::Duration d) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<HyperLoopGroup> group_;
  std::unique_ptr<sim::Rng> rng_;
};

TEST_P(PropertyTest, RandomOpsConvergeAcrossReplicas) {
  // 64 independent cells, each running a random chain of primitives in
  // which every step is issued from the previous step's ACK. The steps
  // mix primitives, and only ops of one primitive are ordered by issue
  // (group.h), so dependent steps must wait for the ACK, as the WAL's do;
  // the lock layer's dependent steps are all gCAS and are pipelined
  // instead. Chains across cells run fully concurrently. At quiescence
  // every replica's region must equal the client's copy.
  sim::Rng& rng = *rng_;
  constexpr int kCells = 64;
  constexpr uint64_t kCellStride = 4096;
  int done_chains = 0, issued = 0;

  // Per-cell op scripts, pre-drawn so RNG use is independent of timing.
  struct Step {
    int kind;  // 0 gwrite, 1 gmemcpy, 2 gcas
    uint64_t a, b;
    uint32_t len;
    bool flush;
  };
  std::vector<std::vector<Step>> scripts(kCells);
  for (int c = 0; c < kCells; ++c) {
    const int steps = 2 + static_cast<int>(rng.next_below(6));
    for (int s = 0; s < steps; ++s) {
      Step st;
      st.kind = static_cast<int>(rng.next_below(3));
      st.a = rng.next_u64();
      st.b = rng.next_u64();
      st.len = static_cast<uint32_t>(8 + rng.next_below(240) / 8 * 8);
      st.flush = rng.chance(0.5);
      scripts[static_cast<size_t>(c)].push_back(st);
      ++issued;
    }
  }

  std::function<void(int, size_t)> step_fn = [&](int cell, size_t idx) {
    if (idx == scripts[static_cast<size_t>(cell)].size()) {
      ++done_chains;
      return;
    }
    const Step st = scripts[static_cast<size_t>(cell)][idx];
    const uint64_t base = static_cast<uint64_t>(cell) * kCellStride;
    auto next = [&step_fn, cell, idx] { step_fn(cell, idx + 1); };
    switch (st.kind) {
      case 0: {
        std::vector<uint8_t> data(st.len);
        uint64_t x = st.a | 1;
        for (auto& byte : data) {
          x ^= x << 13; x ^= x >> 7; x ^= x << 17;
          byte = static_cast<uint8_t>(x);
        }
        group_->client_store(base, data.data(), st.len);
        group_->gwrite(base, st.len, st.flush, next);
        break;
      }
      case 1: {
        group_->gmemcpy(base, base + kCellStride / 2, st.len, st.flush, next);
        break;
      }
      default: {
        const uint64_t word = base + 1024;
        uint64_t current = 0;
        group_->client_load(word, &current, 8);
        // Half the time CAS with the right expectation (swaps), half with
        // a wrong one (no-op); mirror the deterministic outcome locally.
        const uint64_t expected = st.b % 2 == 0 ? current : current + 1;
        group_->gcas(word, expected, st.a, ExecMap::all(3),
                     [&, word, expected, st, next](
                         const CasResult& old_vals) {
                       if (old_vals[0] == expected) {
                         group_->client_store(word, &st.a, 8);
                       }
                       next();
                     });
        break;
      }
    }
  };
  for (int c = 0; c < kCells; ++c) step_fn(c, 0);
  run(sim::seconds(10));
  ASSERT_EQ(done_chains, kCells);
  (void)issued;

  std::vector<uint8_t> expect(group_->region_size());
  group_->client_load(0, expect.data(),
                      static_cast<uint32_t>(expect.size()));
  for (size_t r = 0; r < 3; ++r) {
    std::vector<uint8_t> got(group_->region_size());
    group_->replica_load(r, 0, got.data(), static_cast<uint32_t>(got.size()));
    EXPECT_EQ(got, expect) << "replica " << r << " diverged";
  }
  EXPECT_EQ(group_->total_rnr_stalls(), 0u);
}

TEST_P(PropertyTest, AckedFlushedWritesSurviveAnyCrash) {
  // Writes with flush=true: everything acknowledged must survive a crash
  // of all replicas at an arbitrary instant; unacknowledged writes may or
  // may not survive (no requirement).
  sim::Rng& rng = *rng_;
  std::map<uint64_t, uint64_t> acked;  // offset -> value
  int issued = 0;
  for (int n = 0; n < 200; ++n) {
    const uint64_t off = rng.next_below(1024) * 64;
    const uint64_t val = rng.next_u64();
    group_->client_store(off, &val, 8);
    ++issued;
    group_->gwrite(off, 8, /*flush=*/true, [&, off, val] {
      acked[off] = val;
    });
    // Occasionally let some time pass so acks interleave with issues.
    if (rng.chance(0.2)) run(sim::usec(rng.next_below(30)));
  }
  // Crash at a random instant while some ops are still in flight.
  run(sim::usec(rng.next_below(200)));
  const auto acked_snapshot = acked;
  for (size_t r = 0; r < 3; ++r) group_->replica_server(r).nvm().crash();

  for (const auto& [off, val] : acked_snapshot) {
    for (size_t r = 0; r < 3; ++r) {
      uint64_t got = 0;
      group_->replica_load(r, off, &got, 8);
      // The acked value may have been overwritten by a *later acked or
      // in-flight* write to the same offset that already reached this
      // replica; but it can never regress to an older value than the
      // last acked one. Track via monotonically increasing values:
      // enforce by only checking offsets written exactly once.
      (void)got;
    }
  }
  // Simpler, strict check: re-run per unique offset written once.
  // (Above loop documents the general invariant; the strict check below
  // uses fresh unique offsets.)
  std::map<uint64_t, uint64_t> unique_acked;
  int done2 = 0, issued2 = 0;
  for (int n = 0; n < 100; ++n) {
    const uint64_t off = (2048 + static_cast<uint64_t>(n)) * 64;
    const uint64_t val = rng.next_u64();
    group_->client_store(off, &val, 8);
    ++issued2;
    group_->gwrite(off, 8, true, [&, off, val] {
      unique_acked[off] = val;
      ++done2;
    });
  }
  run(sim::usec(300 + rng.next_below(400)));
  const auto snap = unique_acked;
  for (size_t r = 0; r < 3; ++r) group_->replica_server(r).nvm().crash();
  EXPECT_GT(snap.size(), 0u);
  for (const auto& [off, val] : snap) {
    for (size_t r = 0; r < 3; ++r) {
      uint64_t got = 0;
      group_->replica_load(r, off, &got, 8);
      EXPECT_EQ(got, val) << "replica " << r << " lost acked+flushed write at "
                          << off;
    }
  }
  (void)issued;
}

TEST_P(PropertyTest, TransactionsAreAllOrNothingAfterCrashReplay) {
  // Each transaction writes the same tag to 4 scattered cells. After a
  // crash + redo replay on a replica, every tag group must be complete
  // (all 4 cells) or absent (no cell newer than a completed tag).
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 128 << 10;
  layout.num_locks = 16;
  ReplicatedWal wal(*group_, layout);
  GroupLockManager locks(*group_, layout);
  TransactionManager txns(*group_, wal, locks, cluster_->loop());
  sim::Rng& rng = *rng_;

  const int kTxns = 40;
  for (int t = 1; t <= kTxns; ++t) {
    std::vector<ReplicatedWal::Entry> writes;
    for (int c = 0; c < 4; ++c) {
      const uint64_t cell_off =
          (static_cast<uint64_t>(t) * 4 + static_cast<uint64_t>(c)) * 64;
      std::vector<uint8_t> tag(8);
      const uint64_t v = static_cast<uint64_t>(t);
      std::memcpy(tag.data(), &v, 8);
      writes.push_back({cell_off, tag});
    }
    txns.execute(std::move(writes),
                 {static_cast<uint32_t>(rng.next_below(16))}, [](bool) {});
  }
  // Crash a random replica at a random instant mid-stream.
  run(sim::usec(200 + rng.next_below(2000)));
  const size_t victim = rng.next_below(3);
  group_->replica_server(victim).nvm().crash();

  // Recover: replay the committed log over the crashed image.
  const rdma::Addr base = group_->replica_region_base(victim);
  Server& srv = group_->replica_server(victim);
  ReplicatedWal::replay(
      layout,
      [&](uint64_t off, void* dst, uint32_t len) {
        srv.mem().read(base + off, dst, len);
      },
      [&](uint64_t off, const void* src, uint32_t len) {
        srv.mem().write(base + off, src, len);
      });

  int complete = 0, partial = 0;
  for (int t = 1; t <= kTxns; ++t) {
    int cells = 0;
    for (int c = 0; c < 4; ++c) {
      const uint64_t cell_off = layout.db_base() +
          (static_cast<uint64_t>(t) * 4 + static_cast<uint64_t>(c)) * 64;
      uint64_t v = 0;
      srv.mem().read(base + cell_off, &v, 8);
      if (v == static_cast<uint64_t>(t)) ++cells;
    }
    if (cells == 4) {
      ++complete;
    } else if (cells != 0) {
      ++partial;
    }
  }
  EXPECT_EQ(partial, 0) << "torn transaction visible after replay";
  EXPECT_GT(complete, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hyperloop::core
