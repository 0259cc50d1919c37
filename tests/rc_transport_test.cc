// RC transport tests: PSN ordering, go-back-N retransmission, duplicate
// suppression, and end-to-end HyperLoop correctness over a lossy fabric.
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
