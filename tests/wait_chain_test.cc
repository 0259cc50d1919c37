// Tests for the two HyperLoop enabling mechanisms at the raw verbs level:
// CORE-Direct WAIT (event-triggered queues) and deferred-ownership WQEs
// patched by inbound RECV scatters (remote work-request manipulation).
#include <gtest/gtest.h>

#include <cstring>

#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

struct ThreeNodes : ::testing::Test {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20}, mem_c{1 << 20};
  nvm::NvmDevice nvm_a{mem_a, 64 << 10}, nvm_b{mem_b, 64 << 10},
      nvm_c{mem_c, 64 << 10};
  Nic a{loop, net, mem_a, &nvm_a};
  Nic b{loop, net, mem_b, &nvm_b};
  Nic c{loop, net, mem_c, &nvm_c};
};

TEST_F(ThreeNodes, WaitBlocksUntilThreshold) {
  // On NIC b: a loopback QP whose queue is [WAIT(recv_cq >= 1)] [COPY].
  CompletionQueue* recv_cq = b.create_cq();
  CompletionQueue* loop_cq = b.create_cq();
  QueuePair* qb = b.create_qp(nullptr, recv_cq, 16);
  QueuePair* lb = b.create_loopback_qp(loop_cq, 16);

  const Addr src = mem_b.alloc(16);
  const Addr dst = mem_b.alloc(16);
  mem_b.write(src, "chained", 8);

  b.post_send(lb, make_wait(recv_cq->id(), 1));
  b.post_send(lb, make_local_copy(src, dst, 8));
  loop.run();

  // Nothing ran: the WAIT is unsatisfied.
  char out[8] = {};
  mem_b.read(dst, out, 8);
  EXPECT_STREQ(out, "");
  EXPECT_EQ(loop_cq->completion_count(), 0u);

  // Deliver a SEND from a -> b; its recv completion satisfies the WAIT.
  CompletionQueue* cq_a = a.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 16);
  rdma::connect(qa, qb);
  b.post_recv(qb, RecvWqe{});
  const Addr msg = mem_a.alloc(8);
  a.post_send(qa, make_send(msg, 0, 4));
  loop.run();

  mem_b.read(dst, out, 8);
  EXPECT_STREQ(out, "chained");
  EXPECT_EQ(loop_cq->completion_count(), 1u);
}

TEST_F(ThreeNodes, WaitThresholdCountsMultipleCompletions) {
  CompletionQueue* recv_cq = b.create_cq();
  CompletionQueue* loop_cq = b.create_cq();
  QueuePair* qb = b.create_qp(nullptr, recv_cq, 16);
  QueuePair* lb = b.create_loopback_qp(loop_cq, 16);

  const Addr flag = mem_b.alloc(8);
  b.post_send(lb, make_wait(recv_cq->id(), 3));
  const Addr one = mem_b.alloc(8);
  mem_b.write(one, "X", 1);
  b.post_send(lb, make_local_copy(one, flag, 1));

  CompletionQueue* cq_a = a.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 16);
  rdma::connect(qa, qb);
  const Addr msg = mem_a.alloc(8);

  for (int i = 0; i < 2; ++i) {
    b.post_recv(qb, RecvWqe{});
    a.post_send(qa, make_send(msg, 0, 1));
  }
  loop.run();
  char out[2] = {};
  mem_b.read(flag, out, 1);
  EXPECT_STREQ(out, "");  // two completions < threshold 3

  b.post_recv(qb, RecvWqe{});
  a.post_send(qa, make_send(msg, 0, 1));
  loop.run();
  mem_b.read(flag, out, 1);
  EXPECT_STREQ(out, "X");
}

TEST_F(ThreeNodes, DeferredWqeStallsUntilGranted) {
  // Ownership passes to the NIC only through a DMA patch of the
  // descriptor: here a SEND from A scattered onto B's deferred slot.
  CompletionQueue* cq = b.create_cq();
  QueuePair* lb = b.create_loopback_qp(cq, 16);
  const Addr src = mem_b.alloc(8);
  const Addr dst = mem_b.alloc(8);
  mem_b.write(src, "own", 3);

  const Wqe copy = make_local_copy(src, dst, 3);
  const uint64_t seq = b.post_send(lb, copy, /*deferred=*/true);
  loop.run();
  char out[4] = {};
  mem_b.read(dst, out, 3);
  EXPECT_STREQ(out, "");  // driver still owns the WQE

  CompletionQueue* recv_cq = b.create_cq();
  QueuePair* qb = b.create_qp(nullptr, recv_cq, 16);
  const MemoryRegion ring_mr = b.register_mr(
      lb->sq_base, uint64_t{lb->sq_slots} * sizeof(Wqe), kLocalWrite);
  RecvWqe recv;
  recv.sges = {Sge{lb->slot_addr(seq), sizeof(WqeDescriptor), ring_mr.lkey}};
  b.post_recv(qb, std::move(recv));
  CompletionQueue* cq_a = a.create_cq();
  QueuePair* qa = a.create_qp(cq_a, nullptr, 16);
  rdma::connect(qa, qb);

  WqeDescriptor patch = copy.d;
  patch.active = 1;
  const Addr blob = mem_a.alloc(sizeof(patch));
  mem_a.write(blob, &patch, sizeof(patch));
  a.post_send(qa, make_send(blob, 0, sizeof(patch)));
  loop.run();
  mem_b.read(dst, out, 3);
  EXPECT_STREQ(out, "own");
}

// The full HyperLoop trick in miniature: node A sends a metadata blob that
// patches a pre-posted, deferred WRITE on node B so that B's NIC forwards
// B-local data to node C — no code runs on B.
TEST_F(ThreeNodes, RecvScatterPatchesAndTriggersForwarding) {
  // --- node B setup (all pre-posted, then B is passive) ---
  CompletionQueue* b_recv_cq = b.create_cq();
  CompletionQueue* b_send_cq = b.create_cq();
  QueuePair* qb_prev = b.create_qp(nullptr, b_recv_cq, 16);
  QueuePair* qb_next = b.create_qp(b_send_cq, nullptr, 16);

  const Addr b_data = nvm_b.alloc(64);
  mem_b.write(b_data, "forward-me!", 12);

  // --- node C setup ---
  CompletionQueue* c_recv_cq = c.create_cq();
  QueuePair* qc = c.create_qp(nullptr, c_recv_cq, 16);
  const Addr c_data = nvm_c.alloc(64);
  const MemoryRegion c_mr = c.register_mr(c_data, 64, kRemoteWrite);

  // --- node A setup ---
  CompletionQueue* a_cq = a.create_cq();
  QueuePair* qa = a.create_qp(a_cq, nullptr, 16);

  rdma::connect(qa, qb_prev);
  rdma::connect(qb_next, qc);

  // B pre-posts: WAIT then a deferred placeholder WRITE on qb_next, and a
  // RECV on qb_prev whose single SGE lands on the WRITE's descriptor.
  b.post_send(qb_next, make_wait(b_recv_cq->id(), 1));
  const uint64_t wseq = b.post_send(qb_next, make_nop(), /*deferred=*/true);
  const MemoryRegion ring_mr = b.register_mr(
      qb_next->sq_base, uint64_t{qb_next->sq_slots} * sizeof(Wqe),
      kLocalWrite);
  RecvWqe recv;
  recv.sges = {
      Sge{qb_next->slot_addr(wseq), sizeof(WqeDescriptor), ring_mr.lkey}};
  b.post_recv(qb_prev, std::move(recv));

  // A builds the patch: "WRITE 12 bytes from B's data region to C".
  WqeDescriptor patch =
      make_write(b_data, 0, c_data, c_mr.rkey, 12).d;
  patch.active = 1;
  const Addr blob = mem_a.alloc(sizeof(patch));
  mem_a.write(blob, &patch, sizeof(patch));
  a.post_send(qa, make_send(blob, 0, sizeof(patch)));
  loop.run();

  char out[13] = {};
  mem_c.read(c_data, out, 12);
  EXPECT_STREQ(out, "forward-me!");
  // B's CPU never ran anything: the whole forward was NIC-side.
  EXPECT_EQ(b_send_cq->completion_count(), 1u);  // the patched WRITE
}

TEST_F(ThreeNodes, PatchCanRewriteOpcodeToNop) {
  // Same structure, but the patch turns the WQE into a NOP (gCAS execute
  // map semantics): nothing is written to C.
  CompletionQueue* b_recv_cq = b.create_cq();
  CompletionQueue* b_send_cq = b.create_cq();
  QueuePair* qb_prev = b.create_qp(nullptr, b_recv_cq, 16);
  QueuePair* qb_next = b.create_qp(b_send_cq, nullptr, 16);
  CompletionQueue* c_recv_cq = c.create_cq();
  QueuePair* qc = c.create_qp(nullptr, c_recv_cq, 16);
  const Addr c_data = nvm_c.alloc(64);
  c.register_mr(c_data, 64, kRemoteWrite);
  CompletionQueue* a_cq = a.create_cq();
  QueuePair* qa = a.create_qp(a_cq, nullptr, 16);
  rdma::connect(qa, qb_prev);
  rdma::connect(qb_next, qc);

  b.post_send(qb_next, make_wait(b_recv_cq->id(), 1));
  const uint64_t wseq = b.post_send(qb_next, make_nop(), true);
  const MemoryRegion ring_mr = b.register_mr(
      qb_next->sq_base, uint64_t{qb_next->sq_slots} * sizeof(Wqe),
      kLocalWrite);
  RecvWqe recv;
  recv.sges = {
      Sge{qb_next->slot_addr(wseq), sizeof(WqeDescriptor), ring_mr.lkey}};
  b.post_recv(qb_prev, std::move(recv));

  WqeDescriptor patch;
  patch.opcode = static_cast<uint8_t>(Opcode::kNop);
  patch.active = 1;
  const Addr blob = mem_a.alloc(sizeof(patch));
  mem_a.write(blob, &patch, sizeof(patch));
  a.post_send(qa, make_send(blob, 0, sizeof(patch)));
  loop.run();

  EXPECT_EQ(b_send_cq->completion_count(), 1u);  // NOP completed
  EXPECT_EQ(c.counters().packets_rx, 0u);        // nothing reached C
}

TEST_F(ThreeNodes, ScatterIntoUnregisteredRingFails) {
  // Without the LocalWrite registration of the ring, the scatter must be
  // rejected (the paper's "with safety checks").
  CompletionQueue* b_recv_cq = b.create_cq();
  QueuePair* qb_prev = b.create_qp(nullptr, b_recv_cq, 16);
  QueuePair* qb_next = b.create_qp(nullptr, nullptr, 16);

  RecvWqe recv;
  recv.sges = {Sge{qb_next->slot_addr(0), sizeof(WqeDescriptor),
                   /*lkey=*/0xdead}};
  b.post_recv(qb_prev, std::move(recv));

  CompletionQueue* a_cq = a.create_cq();
  QueuePair* qa = a.create_qp(a_cq, nullptr, 16);
  rdma::connect(qa, qb_prev);

  WqeDescriptor patch;
  patch.active = 1;
  const Addr blob = mem_a.alloc(sizeof(patch));
  mem_a.write(blob, &patch, sizeof(patch));
  a.post_send(qa, make_send(blob, 0, sizeof(patch)));
  loop.run();

  Cqe cqe;
  ASSERT_TRUE(b_recv_cq->poll(&cqe));
  EXPECT_EQ(cqe.status, CqStatus::kLocalProtectionError);
}

}  // namespace
}  // namespace hyperloop::rdma
