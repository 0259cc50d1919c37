// RC transport tests: PSN ordering, go-back-N retransmission, duplicate
// suppression and READ re-execution, and end-to-end HyperLoop correctness
// over a lossy fabric.
#include <gtest/gtest.h>

#include <cstring>

#include "chain_setup.h"
#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

struct LossyPair : ::testing::Test {
  sim::EventLoop loop;
  Network::Config net_cfg = [] {
    Network::Config c;
    c.loss_probability = 0.05;
    return c;
  }();
  Network net{loop, net_cfg};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  nvm::NvmDevice nvm_a{mem_a, 256 << 10}, nvm_b{mem_b, 256 << 10};
  Nic a{loop, net, mem_a, &nvm_a};
  Nic b{loop, net, mem_b, &nvm_b};
  CompletionQueue* cq_a = a.create_cq(1 << 16);
  CompletionQueue* cq_b = b.create_cq(1 << 16);
  QueuePair* qa = a.create_qp(cq_a, nullptr, 4096);
  QueuePair* qb = b.create_qp(nullptr, cq_b, 4096);

  void connect() {
    rdma::connect(qa, qb);
  }
};

TEST_F(LossyPair, WritesAllCompleteAndLandDespiteLoss) {
  connect();
  const Addr dst = nvm_b.alloc(64 << 10);
  const MemoryRegion mr = b.register_mr(dst, 64 << 10, kRemoteWrite);
  const Addr src = mem_a.alloc(64);

  const int n = 500;
  for (int i = 0; i < n; ++i) {
    uint64_t v = static_cast<uint64_t>(i) * 3 + 1;
    mem_a.write(src, &v, 8);
    a.post_send(qa, make_write(src, 0, dst + static_cast<uint64_t>(i) * 64,
                               mr.rkey, 8, static_cast<uint64_t>(i) + 1));
    loop.run();  // drain each op (incl. retransmission timers)
  }
  EXPECT_GT(net.packets_dropped(), 0u);  // loss actually happened
  EXPECT_GT(a.counters().retransmits + b.counters().retransmits, 0u);

  int completions = 0;
  Cqe c;
  while (cq_a->poll(&c)) {
    EXPECT_EQ(c.status, CqStatus::kSuccess);
    ++completions;
  }
  EXPECT_EQ(completions, n);
  for (int i = 0; i < n; ++i) {
    uint64_t v = 0;
    mem_b.read(dst + static_cast<uint64_t>(i) * 64, &v, 8);
    EXPECT_EQ(v, static_cast<uint64_t>(i) * 3 + 1) << i;
  }
}

TEST_F(LossyPair, CasExecutesExactlyOnceUnderLossAndDuplicates) {
  connect();
  const Addr counter = nvm_b.alloc(8);
  const MemoryRegion mr = b.register_mr(counter, 8, kRemoteAtomic);
  const Addr land = mem_a.alloc(8);

  // A chain of CASes 0->1->2->...->n: if a duplicate ever re-executed, a
  // CAS would observe an unexpected value and the chain would break.
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    a.post_send(qa, make_cas(land, 0, counter, mr.rkey,
                             static_cast<uint64_t>(i),
                             static_cast<uint64_t>(i) + 1));
    loop.run();
    uint64_t old = 0;
    mem_a.read(land, &old, 8);
    ASSERT_EQ(old, static_cast<uint64_t>(i)) << "CAS chain broke at " << i;
  }
  uint64_t final_val = 0;
  mem_b.read(counter, &final_val, 8);
  EXPECT_EQ(final_val, static_cast<uint64_t>(n));
  EXPECT_GT(b.counters().duplicates_dropped + a.counters().retransmits, 0u);
}

TEST_F(LossyPair, SendsAreDeliveredExactlyOnceInOrder) {
  connect();
  const Addr buf = mem_b.alloc(64);
  const MemoryRegion mr = b.register_mr(buf, 64, kLocalWrite);
  const Addr src = mem_a.alloc(8);

  const int n = 300;
  int delivered = 0;
  uint64_t expect_tag = 0;
  for (int i = 0; i < n; ++i) {
    RecvWqe r;
    r.wr_id = static_cast<uint64_t>(i);
    r.sges = {Sge{buf, 8, mr.lkey}};
    b.post_recv(qb, std::move(r));
    uint64_t tag = static_cast<uint64_t>(i) + 1000;
    mem_a.write(src, &tag, 8);
    a.post_send(qa, make_send(src, 0, 8));
    loop.run();
    Cqe c;
    while (cq_b->poll(&c)) {
      EXPECT_EQ(c.wr_id, expect_tag) << "out of order / dup";
      ++expect_tag;
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, n);
}

// Pipelined READs under loss, on the QP whose WRITEs keep rewriting the
// region they read. A lost READ response must not let a later response
// retire the READ (it would lose its CQE); go-back-N resends it and the
// responder runs it again, since a response that carries bytes is never
// cached. Every WR completes exactly once, and every READ lands one
// whole pattern: one written no earlier than the WRITE posted before it,
// never older than the pattern the READ before it landed.
TEST_F(LossyPair, PipelinedReadsCompleteOnceAndLandWholePatterns) {
  connect();
  constexpr int kPairs = 32;
  constexpr uint32_t kLen = 256;
  const Addr region = mem_b.alloc(kLen);
  const MemoryRegion mr =
      b.register_mr(region, kLen, kRemoteRead | kRemoteWrite);
  const Addr src = mem_a.alloc(kPairs * kLen);
  const Addr land = mem_a.alloc(kPairs * kLen);

  for (int lap = 0; lap < 20; ++lap) {
    // Pattern of the lap's i-th WRITE: every byte is tag(i). The high bit
    // alternates per lap, so no READ can pass off last lap's bytes.
    auto tag = [lap](int i) {
      return static_cast<uint8_t>((lap % 2) * 128 + i + 1);
    };
    for (int i = 0; i < kPairs; ++i) {
      mem_a.fill(src + static_cast<uint64_t>(i) * kLen, tag(i), kLen);
      mem_a.fill(land + static_cast<uint64_t>(i) * kLen, 0, kLen);
    }
    for (int i = 0; i < kPairs; ++i) {
      const uint64_t off = static_cast<uint64_t>(i) * kLen;
      a.post_send(qa, make_write(src + off, 0, region, mr.rkey, kLen,
                                 static_cast<uint64_t>(2 * i)));
      a.post_send(qa, make_read(land + off, 0, region, mr.rkey, kLen,
                                static_cast<uint64_t>(2 * i + 1)));
    }
    loop.run();

    int seen[2 * kPairs] = {};
    Cqe c;
    while (cq_a->poll(&c)) {
      ASSERT_EQ(c.status, CqStatus::kSuccess);
      ASSERT_LT(c.wr_id, uint64_t{2 * kPairs});
      ++seen[c.wr_id];
    }
    for (int w = 0; w < 2 * kPairs; ++w) {
      ASSERT_EQ(seen[w], 1) << "lap " << lap << " wr " << w;
    }
    int prev = 0;
    for (int i = 0; i < kPairs; ++i) {
      uint8_t got[kLen];
      mem_a.read(land + static_cast<uint64_t>(i) * kLen, got, kLen);
      for (uint32_t k = 1; k < kLen; ++k) {
        ASSERT_EQ(got[k], got[0]) << "torn READ " << i << " at byte " << k;
      }
      const int landed = got[0] - tag(0);  // index of the WRITE it saw
      ASSERT_GE(landed, i) << "lap " << lap << " READ " << i;
      ASSERT_LT(landed, kPairs) << "lap " << lap << " READ " << i;
      ASSERT_GE(landed, prev) << "lap " << lap << " READ " << i;
      prev = landed;
    }
  }
  EXPECT_GT(net.packets_dropped(), 0u);
  EXPECT_GT(b.counters().reads_reexecuted, 0u)
      << "no duplicate READ was run again";
}

// Pipelined CASes under loss: a lost CAS response must not let a later
// response retire the CAS without its CQE and result. The chain
// i -> i + 1 breaks if a duplicate ever executes again (the responder
// replays its cached response instead).
TEST_F(LossyPair, PipelinedCasesCompleteAndExecuteOnce) {
  connect();
  constexpr int kCases = 32;
  const Addr counter = mem_b.alloc(8);
  const MemoryRegion mr = b.register_mr(counter, 8, kRemoteAtomic);
  const Addr results = mem_a.alloc(kCases * 8);

  uint64_t next = 0;
  for (int lap = 0; lap < 20; ++lap) {
    for (int i = 0; i < kCases; ++i) {
      a.post_send(qa, make_cas(results + static_cast<uint64_t>(i) * 8, 0,
                               counter, mr.rkey, next + i, next + i + 1,
                               static_cast<uint64_t>(i)));
    }
    loop.run();

    int seen[kCases] = {};
    Cqe c;
    while (cq_a->poll(&c)) {
      ASSERT_EQ(c.status, CqStatus::kSuccess);
      ASSERT_LT(c.wr_id, uint64_t{kCases});
      ++seen[c.wr_id];
    }
    for (int i = 0; i < kCases; ++i) {
      ASSERT_EQ(seen[i], 1) << "lap " << lap << " CAS " << i;
      uint64_t old = 0;
      mem_a.read(results + static_cast<uint64_t>(i) * 8, &old, 8);
      ASSERT_EQ(old, next + i) << "lap " << lap << " CAS " << i;
    }
    next += kCases;
  }
  uint64_t final_val = 0;
  mem_b.read(counter, &final_val, 8);
  EXPECT_EQ(final_val, next);
  EXPECT_GT(net.packets_dropped(), 0u);
}

TEST(LossyHyperLoop, GroupOpsSurviveLossyFabric) {
  // End to end: a full HyperLoop chain over a 2% lossy network still
  // completes every op with correct, durable contents.
  core::Cluster cluster(
      {.num_servers = 4, .network = {.loss_probability = 0.02}});
  core::HyperLoopGroup group(
      cluster.server(3), core::chain_replicas(cluster),
      {.region_size = 1 << 20, .ring_slots = 128, .max_inflight = 16});

  int done = 0;
  const int n = 150;
  for (int k = 0; k < n; ++k) {
    uint64_t v = static_cast<uint64_t>(k) * 7 + 3;
    group.client_store(static_cast<uint64_t>(k) * 64, &v, 8);
    group.gwrite(static_cast<uint64_t>(k) * 64, 8, true, [&] { ++done; });
  }
  cluster.loop().run_until(sim::seconds(5));
  ASSERT_EQ(done, n);
  EXPECT_GT(cluster.net().packets_dropped(), 0u);
  for (int k = 0; k < n; k += 11) {
    for (size_t r = 0; r < 3; ++r) {
      uint64_t v = 0;
      group.replica_load(r, static_cast<uint64_t>(k) * 64, &v, 8);
      EXPECT_EQ(v, static_cast<uint64_t>(k) * 7 + 3);
    }
  }
}

TEST(LossyHyperLoop, GcasCorrectUnderLoss) {
  core::Cluster cluster(
      {.num_servers = 4, .network = {.loss_probability = 0.02}});
  core::HyperLoopGroup group(
      cluster.server(3), core::chain_replicas(cluster),
      {.region_size = 1 << 20, .ring_slots = 128, .max_inflight = 16});

  // Lock/unlock chain: each gCAS must execute exactly once everywhere.
  int done = 0;
  std::function<void(uint64_t)> step = [&](uint64_t k) {
    if (k == 60) return;
    const uint64_t expected = k % 2 == 0 ? 0 : 1;
    group.gcas(0, expected, 1 - expected, core::ExecMap::all(3),
               [&, k, expected](const core::CasResult& r) {
                 for (uint64_t v : r) EXPECT_EQ(v, expected) << "at " << k;
                 ++done;
                 step(k + 1);
               });
  };
  step(0);
  cluster.loop().run_until(sim::seconds(5));
  EXPECT_EQ(done, 60);
}

}  // namespace
}  // namespace hyperloop::rdma
