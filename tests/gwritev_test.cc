// gWRITEV (scatter-gather batched replication) tests.
//
// Covers the three properties the batched datapath promises:
//   1. Semantics: a gwritev batch replicates every extent to every replica
//      (durably, with flush), equivalent to a loop of gwrites — checked
//      with a randomized interleaving against a loop-of-gwrite oracle
//      group driven with the identical operation stream.
//   2. Single chain traversal: K extents cost one traversal, not K — the
//      per-replica packet / WQE counter deltas grow sub-linearly in K.
//   3. Doorbell coalescing: a batch submission rings the client doorbell
//      once, where K independent gwrites ring it K times.
//   4. Slot order: each forwarding hop triggers the next right behind the
//      batch's last live WQE, so fewer extents finish sooner.
#include "core/hyperloop_group.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "chain_setup.h"
#include "rdma/nic_costs.h"

namespace hyperloop::core {
namespace {

struct GwritevFixture : ::testing::Test {
  // servers 0..2 = replicas, 3 = client
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  HyperLoopGroup::Config gcfg{
      .region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16};

  std::unique_ptr<HyperLoopGroup> make_group(size_t replicas = 3) {
    return std::make_unique<HyperLoopGroup>(
        cluster.server(3), chain_replicas(cluster, replicas), gcfg);
  }

  void run(sim::Duration d = sim::msec(50)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }
};

TEST_F(GwritevFixture, BatchReplicatesEveryExtentDurably) {
  auto g = make_group();
  const char a[] = "extent-a", b[] = "extent-b", c[] = "extent-c";
  g->client_store(128, a, sizeof(a));
  g->client_store(4096, b, sizeof(b));
  g->client_store(65536, c, sizeof(c));
  bool done = false;
  g->gwritev({{128, sizeof(a)}, {4096, sizeof(b)}, {65536, sizeof(c)}},
             /*flush=*/true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  EXPECT_EQ(g->counters().gwritevs, 1u);
  EXPECT_EQ(g->counters().gwritev_extents, 3u);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();  // flush=true must survive
    char out[64];
    g->replica_load(i, 128, out, sizeof(a));
    EXPECT_STREQ(out, a) << "replica " << i;
    g->replica_load(i, 4096, out, sizeof(b));
    EXPECT_STREQ(out, b) << "replica " << i;
    g->replica_load(i, 65536, out, sizeof(c));
    EXPECT_STREQ(out, c) << "replica " << i;
  }
  EXPECT_EQ(g->total_rnr_stalls(), 0u);
}

TEST_F(GwritevFixture, MaxCapacityBatchWorks) {
  auto g = make_group();
  ExtentVec ext;
  for (uint32_t k = 0; k < ExtentVec::kCapacity; ++k) {
    const uint64_t off = 1024 + k * 512;
    const uint64_t val = 7000 + k;
    g->client_store(off, &val, 8);
    ext.push_back({off, 8});
  }
  bool done = false;
  g->gwritev(ext, true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    for (uint32_t k = 0; k < ExtentVec::kCapacity; ++k) {
      uint64_t v = 0;
      g->replica_load(i, 1024 + k * 512, &v, 8);
      EXPECT_EQ(v, 7000u + k) << "replica " << i << " extent " << k;
    }
  }
}

// K-extent batch = ONE chain traversal. Compare per-replica packet and
// WQE deltas for one gwritev of K extents against K independent gwrites:
// the batch must be strictly sub-linear (the whole point of gWRITEV), and
// the client must ring exactly one doorbell for the whole submission.
TEST_F(GwritevFixture, BatchCostsOneTraversalNotK) {
  auto g = make_group();
  constexpr uint32_t K = ExtentVec::kCapacity;

  // Warm up both rings so refill noise settles before measuring.
  g->gwrite(0, 8, true, Done{});
  g->gwritev({{0, 8}}, true, Done{});
  run();

  auto replica_pkts = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < 3; ++i) {
      n += g->replica_server(i).nic().counters().packets_rx;
    }
    return n;
  };
  auto replica_wqes = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < 3; ++i) {
      n += g->replica_server(i).nic().counters().wqes_executed;
    }
    return n;
  };
  auto client_doorbells = [&] {
    return cluster.server(3).nic().counters().doorbells;
  };

  // K independent gwrites.
  uint64_t pkts0 = replica_pkts(), wqes0 = replica_wqes();
  uint64_t bells0 = client_doorbells();
  int done = 0;
  for (uint32_t k = 0; k < K; ++k) {
    g->gwrite(2048 + k * 64, 64, true, [&] { ++done; });
  }
  run();
  ASSERT_EQ(done, static_cast<int>(K));
  const uint64_t single_pkts = replica_pkts() - pkts0;
  const uint64_t single_wqes = replica_wqes() - wqes0;
  const uint64_t single_bells = client_doorbells() - bells0;

  // One gwritev carrying the same K extents.
  ExtentVec ext;
  for (uint32_t k = 0; k < K; ++k) ext.push_back({2048 + k * 64, 64});
  pkts0 = replica_pkts();
  wqes0 = replica_wqes();
  bells0 = client_doorbells();
  bool bdone = false;
  g->gwritev(ext, true, [&] { bdone = true; });
  run();
  ASSERT_TRUE(bdone);
  const uint64_t batch_pkts = replica_pkts() - pkts0;
  const uint64_t batch_wqes = replica_wqes() - wqes0;
  const uint64_t batch_bells = client_doorbells() - bells0;

  // One traversal: the batch's chain-control overhead (metadata SENDs,
  // WAITs, ACK) is paid once, so its totals stay well under half of K
  // independent traversals.
  EXPECT_LT(batch_pkts * 2, single_pkts);
  EXPECT_LT(batch_wqes * 2, single_wqes);
  // Doorbell coalescing: one submission, one client doorbell.
  EXPECT_EQ(batch_bells, 1u);
  EXPECT_EQ(single_bells, uint64_t{K});
}

// A forwarding hop patches its slot as [WRITE x k] [FLUSH] [SEND] [NOPs]:
// the SEND that triggers the next hop goes out right behind the batch's
// last live WQE, and the slot's unused WQEs run as NOPs after it. So on an
// idle chain a 1-extent batch completes at least 7 WQE times per
// forwarding hop before an 8-extent one. With the NOPs in front of the
// FLUSH and SEND, both batches would wait for all 10 WQEs at every hop and
// differ by the client's 7 extra WRITEs and their bytes only.
void ExpectSendRightBehindLastLiveWqe(GwritevFixture& f, bool flush) {
  auto g = f.make_group();
  auto latency = [&](uint32_t extents) {
    ExtentVec ext;
    for (uint32_t k = 0; k < extents; ++k) ext.push_back({4096 + k * 64, 8});
    const sim::Time start = f.cluster.loop().now();
    sim::Time end = 0;
    g->gwritev(ext, flush, [&] { end = f.cluster.loop().now(); });
    f.run();
    EXPECT_GT(end, start);
    return end - start;
  };
  latency(1);  // first use of the ring
  const sim::Duration one = latency(1);
  const sim::Duration eight = latency(ExtentVec::kCapacity);
  constexpr sim::Duration kForwardingHops = 2;  // R0 and R1 of 3 replicas
  EXPECT_GE(eight - one, 7 * rdma::kWqeCost * kForwardingHops)
      << "1 extent: " << one << " ns, 8 extents: " << eight << " ns";
}

TEST_F(GwritevFixture, FlushedHopSendsRightBehindItsFlush) {
  ExpectSendRightBehindLastLiveWqe(*this, /*flush=*/true);
}

TEST_F(GwritevFixture, UnflushedHopSendsRightBehindItsLastWrite) {
  ExpectSendRightBehindLastLiveWqe(*this, /*flush=*/false);
}

// Randomized equivalence: drive a batched group and a loop-of-gwrite
// oracle group with the identical stream of gwritev / gwrite / gcas ops
// and require byte-identical replica regions at the end. The oracle
// expands each gwritev into per-extent gwrites (the ReplicationGroup base
// fallback), so any divergence in the native batched datapath —
// mis-patched descriptors, wrong extent order, dropped NOP slots — shows
// up as a region mismatch.
TEST_F(GwritevFixture, RandomizedBatchMatchesLoopOfGwriteOracle) {
  auto batched = make_group();
  auto oracle = make_group();
  std::mt19937 rng(20260808);

  constexpr uint64_t kArea = 128 * 1024;  // offsets stay inside this prefix
  auto rnd_off = [&](uint32_t len) {
    return (rng() % (kArea - len)) & ~uint64_t{7};
  };

  int want = 0, got_b = 0, got_o = 0;
  for (int op = 0; op < 120; ++op) {
    const uint32_t kind = rng() % 10;
    const bool flush = (rng() & 1) != 0;
    if (kind < 5) {  // gwritev, 1..kCapacity extents
      const uint32_t n = 1 + rng() % ExtentVec::kCapacity;
      ExtentVec ext;
      for (uint32_t k = 0; k < n; ++k) {
        const uint32_t len = 8 * (1 + rng() % 32);
        const uint64_t off = rnd_off(len);
        std::vector<uint8_t> bytes(len);
        for (auto& x : bytes) x = static_cast<uint8_t>(rng());
        batched->client_store(off, bytes.data(), len);
        oracle->client_store(off, bytes.data(), len);
        ext.push_back({off, len});
      }
      batched->gwritev(ext, flush, [&] { ++got_b; });
      for (size_t k = 0; k + 1 < ext.size(); ++k) {
        oracle->gwrite(ext[k].offset, ext[k].len, flush, Done{});
      }
      oracle->gwrite(ext[ext.size() - 1].offset, ext[ext.size() - 1].len,
                     flush, [&] { ++got_o; });
    } else if (kind < 8) {  // single gwrite
      const uint32_t len = 8 * (1 + rng() % 64);
      const uint64_t off = rnd_off(len);
      std::vector<uint8_t> bytes(len);
      for (auto& x : bytes) x = static_cast<uint8_t>(rng());
      batched->client_store(off, bytes.data(), len);
      oracle->client_store(off, bytes.data(), len);
      batched->gwrite(off, len, flush, [&] { ++got_b; });
      oracle->gwrite(off, len, flush, [&] { ++got_o; });
    } else {  // gcas on the same cell in both groups
      const uint64_t off = rnd_off(8);
      const uint64_t desired = rng();
      batched->gcas(off, 0, desired, ExecMap::all(3),
                    [&](const CasResult&) { ++got_b; });
      oracle->gcas(off, 0, desired, ExecMap::all(3),
                   [&](const CasResult&) { ++got_o; });
    }
    ++want;
    if (op % 16 == 15) run(sim::msec(20));  // drain in waves
  }
  run(sim::msec(200));
  ASSERT_EQ(got_b, want);
  ASSERT_EQ(got_o, want);

  std::vector<uint8_t> rb(kArea), ro(kArea);
  for (size_t i = 0; i < 3; ++i) {
    batched->replica_load(i, 0, rb.data(), kArea);
    oracle->replica_load(i, 0, ro.data(), kArea);
    ASSERT_EQ(std::memcmp(rb.data(), ro.data(), kArea), 0)
        << "replica " << i << " diverged from loop-of-gwrite oracle";
  }
}

// The credit window applies to batches exactly as to single ops: flood
// more gwritevs than max_inflight and every one still completes (excess
// parks in the waiting ring), with regions intact.
TEST_F(GwritevFixture, BatchesQueueWhenCreditWindowIsFull) {
  auto g = make_group();
  const int n = 64;  // 4x max_inflight
  int done = 0;
  for (int k = 0; k < n; ++k) {
    const uint64_t off = 512 + static_cast<uint64_t>(k) * 32;
    const uint64_t v0 = 100 + k, v1 = 10000 + k;
    g->client_store(off, &v0, 8);
    g->client_store(off + 16, &v1, 8);
    g->gwritev({{off, 8}, {off + 16, 8}}, false, [&] { ++done; });
  }
  cluster.loop().run_until(cluster.loop().now() + sim::msec(500));
  ASSERT_EQ(done, n);
  for (int k = 0; k < n; ++k) {
    const uint64_t off = 512 + static_cast<uint64_t>(k) * 32;
    for (size_t i = 0; i < 3; ++i) {
      uint64_t a = 0, b = 0;
      g->replica_load(i, off, &a, 8);
      g->replica_load(i, off + 16, &b, 8);
      EXPECT_EQ(a, 100u + k);
      EXPECT_EQ(b, 10000u + k);
    }
  }
  EXPECT_EQ(g->counters().gwritevs, static_cast<uint64_t>(n));
  EXPECT_EQ(g->counters().gwritev_extents, static_cast<uint64_t>(2 * n));
}

// Non-HyperLoop backends inherit the base-class loop fallback; sanity
// check it through the virtual interface on the batched group's oracle
// semantics (done fires after the last extent).
TEST_F(GwritevFixture, DoneFiresAfterLastExtent) {
  auto g = make_group();
  const uint64_t sentinel = 0xFEEDFACE;
  g->client_store(9000, &sentinel, 8);
  g->client_store(9100, &sentinel, 8);
  bool done = false;
  g->gwritev({{9000, 8}, {9100, 8}}, true, [&] {
    done = true;
    // At completion every extent must already be replicated.
    for (size_t i = 0; i < 3; ++i) {
      uint64_t v = 0;
      g->replica_load(i, 9000, &v, 8);
      EXPECT_EQ(v, sentinel);
      g->replica_load(i, 9100, &v, 8);
      EXPECT_EQ(v, sentinel);
    }
  });
  run();
  ASSERT_TRUE(done);
}

}  // namespace
}  // namespace hyperloop::core
