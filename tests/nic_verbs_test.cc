// Verbs-level tests: two NICs on a fabric exercising WRITE/SEND/READ/CAS,
// protection checks, gFLUSH durability, and immediate data.
#include <gtest/gtest.h>

#include <cstring>

#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

struct TwoNodes : ::testing::Test {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  nvm::NvmDevice nvm_a{mem_a, 256 << 10}, nvm_b{mem_b, 256 << 10};
  Nic a{loop, net, mem_a, &nvm_a};
  Nic b{loop, net, mem_b, &nvm_b};

  CompletionQueue* cq_a = a.create_cq();
  CompletionQueue* cq_b_recv = b.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 64);
  QueuePair* qb = b.create_qp(nullptr, cq_b_recv, 64);

  void connect() {
    rdma::connect(qa, qb);
  }
};

TEST_F(TwoNodes, WriteTransfersData) {
  connect();
  const Addr src = mem_a.alloc(64);
  const Addr dst = nvm_b.alloc(64);
  const MemoryRegion mr = b.register_mr(dst, 64, kRemoteWrite);
  mem_a.write(src, "payload", 8);

  a.post_send(qa, make_write(src, 0, dst, mr.rkey, 8, /*wr_id=*/42));
  loop.run();

  char out[8];
  mem_b.read(dst, out, 8);
  EXPECT_STREQ(out, "payload");

  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.wr_id, 42u);
  EXPECT_EQ(c.status, CqStatus::kSuccess);
}

TEST_F(TwoNodes, WriteWithBadRkeyFailsAndDoesNotWrite) {
  connect();
  const Addr src = mem_a.alloc(64);
  const Addr dst = nvm_b.alloc(64);
  b.register_mr(dst, 64, kRemoteWrite);
  mem_a.write(src, "attack!", 8);

  a.post_send(qa, make_write(src, 0, dst, /*rkey=*/0xbad, 8, 1));
  loop.run();

  char out[8] = {};
  mem_b.read(dst, out, 8);
  EXPECT_STREQ(out, "");  // untouched
  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.status, CqStatus::kRemoteAccessError);
  EXPECT_EQ(b.counters().remote_access_errors, 1u);
}

TEST_F(TwoNodes, WriteOutsideRegionFails) {
  connect();
  const Addr src = mem_a.alloc(64);
  const Addr dst = nvm_b.alloc(64);
  const MemoryRegion mr = b.register_mr(dst, 64, kRemoteWrite);
  a.post_send(qa, make_write(src, 0, dst + 60, mr.rkey, 8, 1));
  loop.run();
  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.status, CqStatus::kRemoteAccessError);
}

TEST_F(TwoNodes, SendScattersIntoRecvSges) {
  connect();
  const Addr src = mem_a.alloc(64);
  mem_a.write(src, "0123456789AB", 12);
  const Addr r1 = mem_b.alloc(8);
  const Addr r2 = mem_b.alloc(8);
  const MemoryRegion mr = b.register_mr(r1, 64 + (r2 - r1), kLocalWrite);

  RecvWqe recv;
  recv.wr_id = 7;
  recv.sges = {Sge{r1, 8, mr.lkey}, Sge{r2, 8, mr.lkey}};
  b.post_recv(qb, std::move(recv));

  a.post_send(qa, make_send(src, 0, 12, 5));
  loop.run();

  char p1[9] = {}, p2[5] = {};
  mem_b.read(r1, p1, 8);
  mem_b.read(r2, p2, 4);
  EXPECT_EQ(std::memcmp(p1, "01234567", 8), 0);
  EXPECT_EQ(std::memcmp(p2, "89AB", 4), 0);

  Cqe c;
  ASSERT_TRUE(cq_b_recv->poll(&c));
  EXPECT_EQ(c.wr_id, 7u);
  EXPECT_EQ(c.byte_len, 12u);
  Cqe ack;
  ASSERT_TRUE(cq_a->poll(&ack));
  EXPECT_EQ(ack.status, CqStatus::kSuccess);
}

TEST_F(TwoNodes, SendWithoutRecvStallsUntilPosted) {
  connect();
  const Addr src = mem_a.alloc(16);
  mem_a.write(src, "late", 4);
  a.post_send(qa, make_send(src, 0, 4, 1));
  loop.run();
  EXPECT_EQ(b.counters().rnr_stalls, 1u);
  EXPECT_EQ(cq_b_recv->completion_count(), 0u);

  const Addr r1 = mem_b.alloc(8);
  const MemoryRegion mr = b.register_mr(r1, 8, kLocalWrite);
  RecvWqe recv;
  recv.sges = {Sge{r1, 8, mr.lkey}};
  b.post_recv(qb, std::move(recv));
  loop.run();

  char out[5] = {};
  mem_b.read(r1, out, 4);
  EXPECT_STREQ(out, "late");
}

TEST_F(TwoNodes, ReadFetchesRemoteData) {
  connect();
  const Addr remote = nvm_b.alloc(64);
  mem_b.write(remote, "remote-bytes", 12);
  const MemoryRegion mr = b.register_mr(remote, 64, kRemoteRead);
  const Addr land = mem_a.alloc(64);

  a.post_send(qa, make_read(land, 0, remote, mr.rkey, 12, 9));
  loop.run();

  char out[13] = {};
  mem_a.read(land, out, 12);
  EXPECT_STREQ(out, "remote-bytes");
  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.wr_id, 9u);
}

TEST_F(TwoNodes, ZeroByteReadFlushesNvm) {
  connect();
  const Addr dst = nvm_b.alloc(64);
  const MemoryRegion mr =
      b.register_mr(dst, 64, kRemoteWrite | kRemoteRead);
  const Addr src = mem_a.alloc(64);
  mem_a.write(src, "durable?", 8);

  a.post_send(qa, make_write(src, 0, dst, mr.rkey, 8));
  loop.run();
  EXPECT_FALSE(nvm_b.is_durable(dst, 8));  // ACKed but volatile!

  a.post_send(qa, make_flush(dst, mr.rkey, 11));
  loop.run();
  EXPECT_TRUE(nvm_b.is_durable(dst, 8));
  EXPECT_EQ(b.counters().flushes, 1u);

  nvm_b.crash();
  char out[9] = {};
  mem_b.read(dst, out, 8);
  EXPECT_STREQ(out, "durable?");
}

TEST_F(TwoNodes, UnflushedWriteIsLostOnCrash) {
  connect();
  const Addr dst = nvm_b.alloc(64);
  const MemoryRegion mr = b.register_mr(dst, 64, kRemoteWrite);
  const Addr src = mem_a.alloc(64);
  mem_a.write(src, "gone", 4);
  a.post_send(qa, make_write(src, 0, dst, mr.rkey, 4));
  loop.run();
  nvm_b.crash();
  char out[5] = {};
  mem_b.read(dst, out, 4);
  EXPECT_STREQ(out, "");
}

TEST_F(TwoNodes, CasSwapsOnMatch) {
  connect();
  const Addr word = nvm_b.alloc(8);
  const uint64_t init = 111;
  mem_b.write(word, &init, 8);
  const MemoryRegion mr = b.register_mr(word, 8, kRemoteAtomic);
  const Addr land = mem_a.alloc(8);

  a.post_send(qa, make_cas(land, 0, word, mr.rkey, 111, 222, 3));
  loop.run();

  uint64_t now_val = 0, old = 0;
  mem_b.read(word, &now_val, 8);
  mem_a.read(land, &old, 8);
  EXPECT_EQ(now_val, 222u);
  EXPECT_EQ(old, 111u);
}

TEST_F(TwoNodes, CasFailsOnMismatchButReturnsOld) {
  connect();
  const Addr word = nvm_b.alloc(8);
  const uint64_t init = 999;
  mem_b.write(word, &init, 8);
  const MemoryRegion mr = b.register_mr(word, 8, kRemoteAtomic);
  const Addr land = mem_a.alloc(8);

  a.post_send(qa, make_cas(land, 0, word, mr.rkey, 111, 222, 3));
  loop.run();

  uint64_t now_val = 0, old = 0;
  mem_b.read(word, &now_val, 8);
  mem_a.read(land, &old, 8);
  EXPECT_EQ(now_val, 999u);  // unchanged
  EXPECT_EQ(old, 999u);
}

TEST_F(TwoNodes, CasRequiresAtomicRight) {
  connect();
  const Addr word = nvm_b.alloc(8);
  const MemoryRegion mr = b.register_mr(word, 8, kRemoteWrite);  // no atomic
  const Addr land = mem_a.alloc(8);
  a.post_send(qa, make_cas(land, 0, word, mr.rkey, 0, 1, 3));
  loop.run();
  Cqe c;
  ASSERT_TRUE(cq_a->poll(&c));
  EXPECT_EQ(c.status, CqStatus::kRemoteAccessError);
}

TEST_F(TwoNodes, WriteImmConsumesRecvAndDeliversImm) {
  connect();
  const Addr src = mem_a.alloc(16);
  const Addr dst = nvm_b.alloc(16);
  const MemoryRegion mr = b.register_mr(dst, 16, kRemoteWrite);
  mem_a.write(src, "imm", 3);

  RecvWqe recv;
  recv.wr_id = 77;
  b.post_recv(qb, std::move(recv));

  a.post_send(qa, make_write_imm(src, 0, dst, mr.rkey, 3, 0xCAFE, 4));
  loop.run();

  Cqe c;
  ASSERT_TRUE(cq_b_recv->poll(&c));
  EXPECT_TRUE(c.has_imm);
  EXPECT_EQ(c.imm, 0xCAFEu);
  EXPECT_EQ(c.wr_id, 77u);
  char out[4] = {};
  mem_b.read(dst, out, 3);
  EXPECT_STREQ(out, "imm");
}

TEST_F(TwoNodes, GatherWithAuxSegment) {
  connect();
  const Addr s1 = mem_a.alloc(8);
  const Addr s2 = mem_a.alloc(8);
  mem_a.write(s1, "AAAA", 4);
  mem_a.write(s2, "BBBB", 4);
  const Addr dst = nvm_b.alloc(16);
  const MemoryRegion mr = b.register_mr(dst, 16, kRemoteWrite);

  Wqe w = make_write(s1, 0, dst, mr.rkey, 4);
  w.d.aux_addr = s2;
  w.d.aux_length = 4;
  a.post_send(qa, w);
  loop.run();

  char out[9] = {};
  mem_b.read(dst, out, 8);
  EXPECT_EQ(std::memcmp(out, "AAAABBBB", 8), 0);
}

TEST_F(TwoNodes, LocalCopyAndLoopbackCas) {
  CompletionQueue* lcq = a.create_cq();
  QueuePair* lqp = a.create_loopback_qp(lcq, 16);

  const Addr src = mem_a.alloc(32);
  const Addr dst = mem_a.alloc(32);
  mem_a.write(src, "local-dma", 9);
  a.post_send(lqp, make_local_copy(src, dst, 9, 1));

  const Addr word = mem_a.alloc(8);
  const uint64_t init = 5;
  mem_a.write(word, &init, 8);
  const Addr land = mem_a.alloc(8);
  a.post_send(lqp, make_cas(land, 0, word, 0, 5, 6, 2));
  loop.run();

  char out[10] = {};
  mem_a.read(dst, out, 9);
  EXPECT_STREQ(out, "local-dma");
  uint64_t v = 0;
  mem_a.read(word, &v, 8);
  EXPECT_EQ(v, 6u);
  EXPECT_EQ(lcq->completion_count(), 2u);
}

TEST_F(TwoNodes, NotifyFiresOncePerArm) {
  connect();
  int notifications = 0;
  cq_b_recv->set_notify([&] { ++notifications; });
  cq_b_recv->arm_notify();

  const Addr r1 = mem_b.alloc(16);
  const MemoryRegion mr = b.register_mr(r1, 16, kLocalWrite);
  for (int i = 0; i < 3; ++i) {
    RecvWqe recv;
    recv.sges = {Sge{r1, 16, mr.lkey}};
    b.post_recv(qb, std::move(recv));
  }
  const Addr src = mem_a.alloc(4);
  for (int i = 0; i < 3; ++i) a.post_send(qa, make_send(src, 0, 4));
  loop.run();
  EXPECT_EQ(notifications, 1);  // armed once -> one event
  cq_b_recv->arm_notify();
  a.post_send(qa, make_send(src, 0, 4));
  RecvWqe recv;
  recv.sges = {Sge{r1, 16, mr.lkey}};
  b.post_recv(qb, std::move(recv));
  loop.run();
  EXPECT_EQ(notifications, 2);
}

}  // namespace
}  // namespace hyperloop::rdma
