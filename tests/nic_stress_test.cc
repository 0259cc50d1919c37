// Verbs-level randomized stress: many QPs between several NICs, random
// mixes of WRITE/SEND/READ/CAS traffic. Invariants: every signaled WR
// completes exactly once and successfully, data lands where it should,
// and the fabric neither loses nor duplicates packets.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace hyperloop::rdma {
namespace {

class NicStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NicStressTest, RandomTrafficCompletesExactlyOnce) {
  sim::EventLoop loop;
  Network net(loop, Network::Config{});
  constexpr int kNodes = 4;
  constexpr int kQpsPerPair = 2;

  struct Node {
    std::unique_ptr<HostMemory> mem;
    std::unique_ptr<nvm::NvmDevice> nvm;
    std::unique_ptr<Nic> nic;
    Addr region = 0;
    MemoryRegion mr{};
    CompletionQueue* send_cq = nullptr;
    CompletionQueue* recv_cq = nullptr;
  };
  std::vector<Node> nodes(kNodes);
  for (auto& n : nodes) {
    n.mem = std::make_unique<HostMemory>(4 << 20);
    n.nvm = std::make_unique<nvm::NvmDevice>(*n.mem, 1 << 20);
    n.nic = std::make_unique<Nic>(loop, net, *n.mem, n.nvm.get());
    n.region = n.nvm->alloc(512 << 10);
    n.mr = n.nic->register_mr(
        n.region, 512 << 10,
        kRemoteRead | kRemoteWrite | kRemoteAtomic | kLocalWrite);
    n.send_cq = n.nic->create_cq(1 << 16);
    n.recv_cq = n.nic->create_cq(1 << 16);
  }

  // Full mesh of QPs.
  std::vector<std::vector<QueuePair*>> qp_to(kNodes);
  for (int a = 0; a < kNodes; ++a) qp_to[a].resize(kNodes * kQpsPerPair);
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      for (int q = 0; q < kQpsPerPair; ++q) {
        QueuePair* qa = nodes[a].nic->create_qp(nodes[a].send_cq,
                                                nodes[a].recv_cq, 4096);
        qp_to[a][static_cast<size_t>(b * kQpsPerPair + q)] = qa;
      }
    }
  }
  for (int a = 0; a < kNodes; ++a) {
    for (int b = a + 1; b < kNodes; ++b) {
      for (int q = 0; q < kQpsPerPair; ++q) {
        rdma::connect(qp_to[a][static_cast<size_t>(b * kQpsPerPair + q)],
                      qp_to[b][static_cast<size_t>(a * kQpsPerPair + q)]);
      }
    }
  }

  sim::Rng rng(GetParam());
  constexpr int kOps = 2000;
  uint64_t next_wr_id = 1;
  std::map<uint64_t, int> expected;  // wr_id -> issuing node

  for (int i = 0; i < kOps; ++i) {
    const int a = static_cast<int>(rng.next_below(kNodes));
    int b = static_cast<int>(rng.next_below(kNodes));
    if (b == a) b = (b + 1) % kNodes;
    const int qidx = static_cast<int>(rng.next_below(kQpsPerPair));
    QueuePair* qp = qp_to[a][static_cast<size_t>(b * kQpsPerPair + qidx)];
    const uint64_t wr_id = next_wr_id++;
    const uint64_t local_off = rng.next_below(4000) * 64;
    const uint64_t remote_off = rng.next_below(4000) * 64;
    const auto len = static_cast<uint32_t>(8 + rng.next_below(56));
    const double p = rng.next_double();
    if (p < 0.4) {
      nodes[a].nic->post_send(
          qp, make_write(nodes[a].region + local_off, 0,
                         nodes[b].region + remote_off, nodes[b].mr.rkey, len,
                         wr_id));
    } else if (p < 0.6) {
      RecvWqe r;
      r.sges = {Sge{nodes[b].region + remote_off, 64, nodes[b].mr.lkey}};
      nodes[b].nic->post_recv(
          qp_to[b][static_cast<size_t>(a * kQpsPerPair + qidx)],
          std::move(r));
      nodes[a].nic->post_send(
          qp, make_send(nodes[a].region + local_off, 0, len, wr_id));
    } else if (p < 0.8) {
      nodes[a].nic->post_send(
          qp, make_read(nodes[a].region + local_off, 0,
                        nodes[b].region + remote_off, nodes[b].mr.rkey, len,
                        wr_id));
    } else {
      nodes[a].nic->post_send(
          qp, make_cas(nodes[a].region + local_off, 0,
                       nodes[b].region + (remote_off & ~7ull),
                       nodes[b].mr.rkey, rng.next_u64(), rng.next_u64(),
                       wr_id));
    }
    expected.emplace(wr_id, a);
    if (rng.chance(0.1)) loop.run_until(loop.now() + sim::usec(5));
  }
  loop.run();

  // Drain every node's send CQ; each wr_id completes exactly once, with
  // success.
  std::map<uint64_t, int> seen;
  for (auto& n : nodes) {
    Cqe c;
    while (n.send_cq->poll(&c)) {
      if (c.wr_id == 0) continue;
      EXPECT_EQ(c.status, CqStatus::kSuccess) << "wr " << c.wr_id;
      EXPECT_EQ(seen.count(c.wr_id), 0u) << "duplicate completion";
      seen[c.wr_id] = 1;
    }
  }
  EXPECT_EQ(seen.size(), expected.size());
  uint64_t total_rnr = 0;
  for (auto& n : nodes) total_rnr += n.nic->counters().rnr_stalls;
  EXPECT_EQ(total_rnr, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NicStressTest, ::testing::Values(11, 22, 33));

// Slot-table churn under load: 10k QPs created and destroyed in waves
// while steady WRITE traffic flows on two long-lived QPs, with the
// connection-context cache model active (so every churned QPN also
// cycles through the clock-replacement slots). Invariants: the
// long-lived traffic is unaffected
// (every WR completes exactly once, in-order data), destroyed QPNs
// resolve to nullptr forever, and slots really are recycled rather than
// growing the table without bound.
TEST(NicChurnTest, TenThousandQpChurnWhileTrafficFlows) {
  sim::EventLoop loop;
  Network net(loop, Network::Config{});
  HostMemory mem_a(1 << 20), mem_b(32 << 20);
  Nic::Config cfg;
  cfg.qp_cache_entries = 32;  // exercise the context-cache model too
  Nic a(loop, net, mem_a, nullptr, cfg), b(loop, net, mem_b, nullptr, cfg);

  CompletionQueue* cq_a = a.create_cq(1 << 14);
  QueuePair* qa = a.create_qp(cq_a, nullptr, 4096);
  QueuePair* qb = b.create_qp(nullptr, nullptr, 64);
  rdma::connect(qa, qb);
  const Addr src = mem_a.alloc(64 << 10);
  const Addr dst = mem_b.alloc(64 << 10);
  MemoryRegion mr = b.register_mr(dst, 64 << 10, kRemoteWrite);

  constexpr int kChurn = 10000;
  constexpr int kBatch = 16;
  std::vector<QueuePair*> batch;
  std::set<uint32_t> slots_seen;
  std::vector<uint32_t> dead_qpns;
  uint64_t writes_posted = 0;
  sim::Rng rng(7);

  for (int i = 0; i < kChurn; ++i) {
    // Churned QPs are created on the responder NIC (where traffic lands),
    // with tiny rings so 10k send queues fit the host arena.
    QueuePair* q = b.create_qp(nullptr, nullptr, 8);
    slots_seen.insert(q->qpn & 0xFFFFFu);
    batch.push_back(q);
    if (batch.size() == kBatch) {
      for (QueuePair* dq : batch) {
        dead_qpns.push_back(dq->qpn);
        b.destroy_qp(dq);
      }
      batch.clear();
      // Keep traffic flowing between waves.
      const uint64_t off = rng.next_below(1000) * 64;
      a.post_send(qa, make_write(src + off, 0, dst + off, mr.rkey, 64,
                                 ++writes_posted));
      if (i % 64 == 0) loop.run_until(loop.now() + sim::usec(20));
    }
  }
  loop.run();

  // Every posted WR completed exactly once, successfully.
  uint64_t completions = 0;
  Cqe c;
  while (cq_a->poll(&c)) {
    EXPECT_EQ(c.status, CqStatus::kSuccess);
    ++completions;
  }
  EXPECT_EQ(completions, writes_posted);
  EXPECT_GE(writes_posted, uint64_t{kChurn / kBatch});

  // Dead QPNs stay dead (generation tags), even though their slots were
  // recycled hundreds of times each.
  for (size_t i = 0; i < dead_qpns.size(); i += 97) {
    EXPECT_EQ(b.qp(dead_qpns[i]), nullptr);
  }
  // Dense recycling: 10k churned QPs + 1 long-lived one fit in a couple
  // of batches' worth of distinct slots.
  EXPECT_LE(slots_seen.size(), size_t{2 * kBatch + 2});
  EXPECT_GT(b.counters().qp_cache_misses, 0u);
  EXPECT_EQ(b.counters().invalid_qp_drops, 0u);
}

// The connection-context cache's clock replacement (the §7 scalability
// model). Semantics: a resident context hits for free; a working set no
// larger than the cache stays resident; overflow evicts (approximate
// LRU via second chance); destroy_qp releases the slot; touches for
// destroyed QPNs charge the fetch without pinning anything. Cost: each
// touch is O(1) via the per-QP backpointer — the many-QP sweep below
// stays fast regardless of how many QPs the NIC hosts (the old MRU list
// walked all resident entries per touch, turning this sweep quadratic).
TEST(QpContextClockTest, ClockCacheSemantics) {
  sim::EventLoop loop;
  Network net(loop, Network::Config{});
  HostMemory mem(8 << 20);
  Nic::Config cfg;
  cfg.qp_cache_entries = 4;
  Nic n(loop, net, mem, nullptr, cfg);

  QueuePair* q[6];
  for (auto& qp : q) qp = n.create_qp(nullptr, nullptr, 8);

  // Cold: first touch misses and installs; second touch hits.
  EXPECT_EQ(n.qp_context_touch(q[0]->qpn), kQpCacheMissCost);
  EXPECT_EQ(n.qp_context_touch(q[0]->qpn), 0);

  // A working set equal to the cache stays fully resident.
  for (int i = 0; i < 4; ++i) n.qp_context_touch(q[i]->qpn);
  const uint64_t misses_warm = n.counters().qp_cache_misses;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(n.qp_context_touch(q[i]->qpn), 0) << "round " << round;
    }
  }
  EXPECT_EQ(n.counters().qp_cache_misses, misses_warm);

  // A fifth context evicts someone (capacity is real).
  EXPECT_EQ(n.qp_context_touch(q[4]->qpn), kQpCacheMissCost);
  uint64_t resident = 0;
  for (int i = 0; i < 5; ++i) {
    resident += n.qp_context_touch(q[i]->qpn) == 0 ? 1 : 0;
  }
  EXPECT_LE(resident, 4u);

  // destroy_qp releases its slot: on a fresh NIC (known clock state),
  // filling the cache, destroying one resident, and installing a new
  // context reuses the freed slot — the other residents keep hitting.
  Nic n2(loop, net, mem, nullptr, cfg);
  QueuePair* p[6];
  for (auto& qp : p) qp = n2.create_qp(nullptr, nullptr, 8);
  for (int i = 0; i < 4; ++i) n2.qp_context_touch(p[i]->qpn);
  const uint32_t dead = p[3]->qpn;
  n2.destroy_qp(p[3]);
  EXPECT_EQ(n2.qp_context_touch(p[4]->qpn), kQpCacheMissCost);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(n2.qp_context_touch(p[i]->qpn), 0) << "evicted by a freed slot";
  }
  // Touching a destroyed QPN charges the fetch and pins nothing.
  EXPECT_EQ(n2.qp_context_touch(dead), kQpCacheMissCost);
  EXPECT_EQ(n2.qp_context_touch(dead), kQpCacheMissCost);
  EXPECT_EQ(n2.qp_context_touch(p[4]->qpn), 0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(n2.qp_context_touch(p[i]->qpn), 0);
}

TEST(QpContextClockTest, ManyQpSweepIsLinearNotQuadratic) {
  sim::EventLoop loop;
  Network net(loop, Network::Config{});
  HostMemory mem(32 << 20);
  Nic::Config cfg;
  cfg.qp_cache_entries = 4096;  // large cache, the old MRU's worst case
  Nic n(loop, net, mem, nullptr, cfg);

  constexpr int kQps = 8192;
  std::vector<QueuePair*> qps;
  qps.reserve(kQps);
  for (int i = 0; i < kQps; ++i) qps.push_back(n.create_qp(nullptr, nullptr, 8));

  // 64 sweeps x 8192 QPs = 512k touches. With the O(1) backpointer this
  // is milliseconds; a reintroduced per-touch scan of 4096 resident
  // entries (~2G probes) would blow the wall-clock budget below by
  // orders of magnitude.
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < 64; ++round) {
    for (QueuePair* q : qps) n.qp_context_touch(q->qpn);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000)
      << "qp_context_touch is no longer O(1)";

  // The sweep working set (8192) exceeds the cache (4096): every round
  // must re-fetch (clock keeps none of a strictly-cycling overflow set
  // pinned forever), and the counters see real traffic.
  EXPECT_GT(n.counters().qp_cache_misses, uint64_t{kQps});
  EXPECT_EQ(n.counters().qp_cache_hits + n.counters().qp_cache_misses,
            uint64_t{64} * kQps + 0u);
}

}  // namespace
}  // namespace hyperloop::rdma
