// Generation-tag regression tests for the dense QP/CQ/MR tables.
//
// The hazard these lock in: with dense slot recycling, a destroyed QP's
// slot (or a deregistered MR's slot) is handed to the next create/register.
// A packet still in flight carries the *old* id; without generation tags
// it would resolve to the unrelated new object — delivering data into the
// wrong queue or through a revoked protection key. The tables detect this
// via the generation bits packed into the id: the stale id resolves to
// nothing, the packet is dropped (invalid_qp_drops) or refused
// (remote-access error), and the recycled object is untouched.
#include <gtest/gtest.h>

#include <cstring>

#include "rdma/network.h"
#include "rdma/nic.h"
#include "rdma/slot_table.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

struct ReuseFixture : ::testing::Test {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  Nic a{loop, net, mem_a, nullptr}, b{loop, net, mem_b, nullptr};

  CompletionQueue* cq_a = a.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 16);

  Addr buf_b = 0;
  MemoryRegion mr_b{};

  void SetUp() override {
    buf_b = mem_b.alloc(4096);
    mr_b = b.register_mr(buf_b, 4096, kRemoteRead | kRemoteWrite);
  }
};

TEST_F(ReuseFixture, StalePacketForRecycledQpnIsDropped) {
  QueuePair* qb = b.create_qp(nullptr, nullptr, 16);
  const uint32_t old_qpn = qb->qpn;
  a.connect(qa, b.id(), old_qpn);
  b.connect(qb, a.id(), qa->qpn);

  // Launch a WRITE toward qb, then destroy qb before the packet can be
  // delivered and recycle its slot with a fresh QP.
  mem_a.write(mem_a.alloc(128), "stale", 6);
  a.post_send(qa, make_write(64, 0, buf_b, mr_b.rkey, 128, /*wr_id=*/7));
  b.destroy_qp(qb);
  ASSERT_EQ(b.qp(old_qpn), nullptr);

  QueuePair* fresh = b.create_qp(nullptr, nullptr, 16);
  // Same slot, different generation: the dense table really did recycle.
  ASSERT_EQ(fresh->qpn & SlotTable<QueuePair>::kSlotMask,
            old_qpn & SlotTable<QueuePair>::kSlotMask);
  ASSERT_NE(fresh->qpn, old_qpn);

  // Run past the RNR retry budget: every (re)delivery of the stale packet
  // must be dropped by the generation check, never delivered to `fresh`.
  loop.run();
  EXPECT_GT(b.counters().invalid_qp_drops, 0u);
  EXPECT_EQ(fresh->expected_psn, 0u);      // untouched by stale traffic
  EXPECT_EQ(cq_a->completion_count(), 0u); // the WR never completes
  char out[8] = {};
  mem_b.read(buf_b, out, 6);
  EXPECT_STRNE(out, "stale");
}

TEST_F(ReuseFixture, RecycledQpCarriesFreshTrafficWhileStaleRetriesBounce) {
  QueuePair* qb = b.create_qp(nullptr, nullptr, 16);
  const uint32_t old_qpn = qb->qpn;
  a.connect(qa, b.id(), old_qpn);
  b.connect(qb, a.id(), qa->qpn);
  a.post_send(qa, make_write(64, 0, buf_b, mr_b.rkey, 64, 1));
  b.destroy_qp(qb);

  // The recycled QP serves a brand-new connection from a second client QP
  // while the stale packet (and its retransmissions) bounce off.
  QueuePair* fresh = b.create_qp(nullptr, nullptr, 16);
  ASSERT_EQ(fresh->qpn & SlotTable<QueuePair>::kSlotMask,
            old_qpn & SlotTable<QueuePair>::kSlotMask);
  CompletionQueue* cq_a2 = a.create_cq();
  QueuePair* qa2 = a.create_qp(cq_a2, nullptr, 16);
  rdma::connect(qa2, fresh);

  mem_a.write(128, "fresh!!", 8);
  a.post_send(qa2, make_write(128, 0, buf_b + 256, mr_b.rkey, 8, 2));
  loop.run();

  Cqe c;
  ASSERT_TRUE(cq_a2->poll(&c));
  EXPECT_EQ(c.status, CqStatus::kSuccess);
  char out[8] = {};
  mem_b.read(buf_b + 256, out, 8);
  EXPECT_STREQ(out, "fresh!!");
  EXPECT_EQ(fresh->expected_psn, 1u);  // exactly the fresh WRITE
  EXPECT_GT(b.counters().invalid_qp_drops, 0u);
  EXPECT_EQ(cq_a->completion_count(), 0u);
}

TEST_F(ReuseFixture, StaleRkeyForRecycledMrSlotIsRefused) {
  QueuePair* qb = b.create_qp(nullptr, nullptr, 16);
  rdma::connect(qa, qb);

  const uint32_t stale_rkey = mr_b.rkey;
  a.post_send(qa, make_write(64, 0, buf_b, stale_rkey, 32, /*wr_id=*/9));

  // Revoke the registration and recycle its slot before delivery.
  ASSERT_TRUE(b.mr_table().deregister(stale_rkey));
  MemoryRegion fresh = b.register_mr(buf_b, 4096, kRemoteRead | kRemoteWrite);
  ASSERT_EQ(fresh.rkey & MrTable::kSlotMask, stale_rkey & MrTable::kSlotMask);
  ASSERT_NE(fresh.rkey, stale_rkey);

  loop.run();

  // The write is refused with a remote-access error: the stale key's
  // generation mismatches even though the slot is live again.
  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.status, CqStatus::kRemoteAccessError);
  EXPECT_GT(b.counters().remote_access_errors, 0u);
  uint64_t probe = 0;
  mem_b.read(buf_b, &probe, sizeof(probe));
  EXPECT_EQ(probe, 0u);  // nothing landed
}

TEST_F(ReuseFixture, DestroyedCqIdGoesStale) {
  CompletionQueue* c = b.create_cq();
  const uint32_t id = c->id();
  ASSERT_EQ(b.cq(id), c);
  b.destroy_cq(c);
  EXPECT_EQ(b.cq(id), nullptr);
  CompletionQueue* again = b.create_cq();
  EXPECT_EQ(again->id() & SlotTable<CompletionQueue>::kSlotMask,
            id & SlotTable<CompletionQueue>::kSlotMask);
  EXPECT_NE(again->id(), id);
  EXPECT_EQ(b.cq(id), nullptr);  // old id still resolves to nothing
}

}  // namespace
}  // namespace hyperloop::rdma
