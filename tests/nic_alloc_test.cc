// Steady-state allocation gate for the NIC datapath.
//
// The flat-table datapath claim (DESIGN.md "NIC datapath") is that once
// the per-QP rings, the response cache, the payload pool, and the event
// slab have warmed to the workload's high-water mark, packet RX/TX —
// engine execute, wire transfer, responder checks, response, requester
// completion — performs ZERO heap allocations. Like the event-loop test,
// this is enforced with a binary-wide operator-new hook, not asserted in
// prose: any regression that reintroduces a hash-map insert, a
// std::function spill, or a payload copy on the hot path fails here.
#include <gtest/gtest.h>

#include <cstring>

#include "alloc_counter.h"
#include "chain_setup.h"
#include "core/lock.h"
#include "core/sharded_reader.h"
#include "core/tcp_group.h"
#include "core/wal.h"
#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"

namespace hyperloop::rdma {
namespace {

// Two NICs, one-sided traffic in both directions. nvm == nullptr keeps
// the NVM durability tracker (an interval set, allocation-churny by
// nature) out of the picture: this test gates the *datapath*, and the
// one-sided opcodes avoid RecvWqe SGE vectors for the same reason.
struct AllocFixture : ::testing::Test {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  Nic a{loop, net, mem_a, nullptr}, b{loop, net, mem_b, nullptr};

  CompletionQueue* cq_a = a.create_cq(1 << 12);
  CompletionQueue* cq_b = b.create_cq(1 << 12);
  QueuePair* qa = a.create_qp(cq_a, nullptr, 1024);
  QueuePair* qb = b.create_qp(cq_b, nullptr, 1024);

  Addr buf_a = 0, buf_b = 0;
  MemoryRegion mr_a{}, mr_b{};

  void SetUp() override {
    rdma::connect(qa, qb);
    buf_a = mem_a.alloc(8192);
    buf_b = mem_b.alloc(8192);
    mr_a = a.register_mr(buf_a, 8192, kRemoteRead | kRemoteWrite |
                                          kRemoteAtomic | kLocalWrite);
    mr_b = b.register_mr(buf_b, 8192, kRemoteRead | kRemoteWrite |
                                          kRemoteAtomic | kLocalWrite);
  }

  // One traffic lap: a mixed one-sided burst in both directions, run to
  // quiescence, completions drained into stack storage.
  void lap() {
    for (int i = 0; i < 16; ++i) {
      a.post_send(qa, make_write(buf_a, 0, buf_b + 64 * i, mr_b.rkey, 128, 1));
      b.post_send(qb, make_write(buf_b, 0, buf_a + 64 * i, mr_a.rkey, 128, 2));
      a.post_send(qa, make_read(buf_a + 4096, 0, buf_b, mr_b.rkey, 256, 3));
      a.post_send(qa,
                  make_cas(buf_a + 2048, 0, buf_b + 2048, mr_b.rkey, 0, 1, 4));
    }
    loop.run();
    Cqe out[64];
    while (cq_a->poll_many(out, 64) > 0) {
    }
    while (cq_b->poll_many(out, 64) > 0) {
    }
  }
};

TEST_F(AllocFixture, SteadyStatePacketPathAllocatesNothing) {
  // Warm-up: grow the SQ/window/CQ rings, the responder response caches
  // (ACKs and CAS responses; a READ response that carries bytes is never
  // cached), the payload pool and the event-loop slab.
  for (int i = 0; i < 24; ++i) lap();

  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  const uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "steady-state NIC RX/TX performed " << (after - before)
      << " heap allocations";

  // Sanity: the laps above really moved packets.
  EXPECT_GT(a.counters().packets_rx, 1000u);
  EXPECT_GT(b.counters().packets_rx, 1000u);
  EXPECT_EQ(a.counters().remote_access_errors, 0u);
  EXPECT_EQ(b.counters().remote_access_errors, 0u);
}

// The recovery paths — go-back-N retransmission (a walk of the window
// ring) and duplicate suppression with response-cache replay (a
// direct-mapped probe plus a refcounted packet copy) — must be
// allocation-free too. Same fixture shape, but with fabric loss injected.
TEST(NicAllocLossy, RetransmitAndReplayPathsAllocateNothing) {
  sim::EventLoop loop;
  Network::Config nc;
  nc.loss_probability = 0.05;
  Network net{loop, nc};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  Nic a{loop, net, mem_a, nullptr}, b{loop, net, mem_b, nullptr};
  CompletionQueue* cq_a = a.create_cq(1 << 12);
  QueuePair* qa = a.create_qp(cq_a, nullptr, 1024);
  QueuePair* qb = b.create_qp(nullptr, nullptr, 1024);
  rdma::connect(qa, qb);
  const Addr buf_a = mem_a.alloc(8192);
  const Addr buf_b = mem_b.alloc(8192);
  MemoryRegion mr_b =
      b.register_mr(buf_b, 8192, kRemoteRead | kRemoteWrite | kLocalWrite);

  // Every posted WR is signaled, and recovery must complete each exactly
  // once: a lost READ response must not cost the READ its CQE.
  constexpr uint64_t kWrsPerLap = 64;
  uint64_t cqes = 0;
  auto lap = [&] {
    for (int i = 0; i < 32; ++i) {
      a.post_send(qa, make_write(buf_a, 0, buf_b + 64 * i, mr_b.rkey, 128, 1));
      a.post_send(qa, make_read(buf_a + 4096, 0, buf_b, mr_b.rkey, 256, 2));
    }
    loop.run();  // drains retransmissions until every window empties
    Cqe out[64];
    size_t n = 0;
    while ((n = cq_a->poll_many(out, 64)) > 0) cqes += n;
  };

  // The payload pool and the event heap reach their high-water marks
  // only where losses fall worst: an unanswered READ holds every WRITE
  // behind it in the window until go-back-N recovers it. On this fixed
  // loss sequence they stop growing after ~150 laps.
  constexpr uint64_t kWarmupLaps = 192;
  for (uint64_t i = 0; i < kWarmupLaps; ++i) lap();
  ASSERT_GT(a.counters().retransmits, 0u) << "loss injection not effective";
  ASSERT_GT(b.counters().reads_reexecuted, 0u);
  ASSERT_EQ(cqes, kWarmupLaps * kWrsPerLap) << "a WR lost its completion";

  const uint64_t before = alloc_count();
  const uint64_t retransmits_before = a.counters().retransmits;
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "recovery paths performed heap allocations";
  EXPECT_GT(a.counters().retransmits, retransmits_before)
      << "measured laps saw no retransmissions";
  EXPECT_EQ(cqes, (kWarmupLaps + 4) * kWrsPerLap)
      << "a WR lost its completion";
}

// The durability datapath: gWRITEs landing in the responder's NVM range
// (every DMA byte marks the dirty bitmap through the range-filtered write
// observer) followed by gFLUSH (0-byte READ -> persist_all walks and
// clears the dirty lines). The whole mark-dirty -> persist -> is_durable
// cycle must be allocation-free in steady state: the DirtyBitmap allocates
// its words once at construction, persist_all walks set summary words
// with no interval snapshot, and crash-free laps never touch the
// allocator. This is the tracker-level guarantee that replaced the
// std::map IntervalSet on the hot path.
TEST(NicAllocDurability, GwriteGflushSteadyStateAllocatesNothing) {
  sim::EventLoop loop;
  Network net{loop, Network::Config{}};
  HostMemory mem_a{1 << 20}, mem_b{1 << 20};
  nvm::NvmDevice nvm_b{mem_b, 256 << 10};  // carve NVM before other allocs
  Nic a{loop, net, mem_a, nullptr}, b{loop, net, mem_b, &nvm_b};
  CompletionQueue* cq_a = a.create_cq(1 << 12);
  QueuePair* qa = a.create_qp(cq_a, nullptr, 1024);
  QueuePair* qb = b.create_qp(nullptr, nullptr, 1024);
  rdma::connect(qa, qb);
  const Addr src = mem_a.alloc(8192);
  const Addr dst = nvm_b.alloc(8192);
  MemoryRegion mr =
      b.register_mr(dst, 8192, kRemoteRead | kRemoteWrite | kLocalWrite);

  // One durability lap: a burst of writes into the NVM region, then a
  // gFLUSH; on completion everything written must be durable.
  auto lap = [&] {
    for (int i = 0; i < 32; ++i) {
      a.post_send(qa, make_write(src, 0, dst + 128 * i, mr.rkey, 128, 1));
    }
    a.post_send(qa, make_flush(dst, mr.rkey, 2));
    loop.run();
    Cqe out[64];
    while (cq_a->poll_many(out, 64) > 0) {
    }
  };

  for (int i = 0; i < 24; ++i) lap();
  ASSERT_GT(b.counters().flushes, 0u);
  ASSERT_TRUE(nvm_b.is_durable(dst, 8192));

  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "durability path (mark-dirty -> persist -> is_durable) performed "
      << (alloc_count() - before) << " heap allocations";

  // Sanity: the measured laps really exercised the tracker.
  EXPECT_EQ(nvm_b.dirty_bytes(), 0u);
  EXPECT_TRUE(nvm_b.is_durable(dst, 8192));
  nvm_b.crash();  // nothing volatile: crash must be a no-op on the data
  uint8_t probe = 0;
  mem_b.read(dst, &probe, 1);
  EXPECT_EQ(b.counters().remote_access_errors, 0u);
}

}  // namespace
}  // namespace hyperloop::rdma

namespace hyperloop::core {
namespace {

// The transaction-layer lap: the claim behind the SmallFn completion API
// and the ring-indexed op tracking (DESIGN.md "Callback types") is that a
// whole gWRITE-through-WAL transaction — wr_lock gCAS, WAL append (staged
// directly into the client region, gWRITE + gFLUSH down the chain),
// ExecuteAndAdvance gMEMCPYs, and the releasing gMEMCPY issued right
// behind them — touches the heap zero times in steady state. Each lap
// runs four transactions the way core/txn.cc does: the first two commit
// in batches of their own (two batches in flight), the other two share
// the next commit batch, so the third one's execute applies the fourth's
// record and the fourth only releases. A transaction counts as done when
// its release acks. Every continuation lives inline in a pending-op slot
// or pool entry; the op-tracking tables and rings are at their
// high-water marks after warm-up.
TEST(NicAllocTransaction, WalLockTransactionLapAllocatesNothing) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  layout.num_locks = 16;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 64,
                        .max_inflight = 16});
  ReplicatedWal wal(group, layout);
  GroupLockManager locks(group, layout);

  // Fixed inputs, built once: append() reads the caller's entry vector
  // and stages bytes straight into the client region, so reusing one
  // entry keeps the lap's working set entirely pre-allocated.
  const std::vector<uint8_t> payload(64, 0xAB);
  std::vector<ReplicatedWal::Entry> entries;
  entries.push_back({/*db_offset=*/256, payload});

  constexpr uint32_t kTxnsPerLap = 4;
  int txns_done = 0;
  auto txn = [&](uint32_t lock, uint64_t owner) {
    locks.wr_lock(lock, owner, [&, lock](bool ok) {
      if (!ok) return;
      wal.append(entries, [&, lock](uint64_t) {
        wal.execute_and_advance(ReplicatedWal::Done{});
        locks.wr_unlock(lock, [&] { ++txns_done; });
      });
    });
  };
  auto lap = [&] {
    for (uint32_t k = 0; k < kTxnsPerLap; ++k) txn(1 + k, 7 + k);
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  };

  // Warm-up: grow the slot pools (lock ops, WAL exec ops), the group's
  // pending tables and credit rings, the NIC rings, and the event slab.
  for (int i = 0; i < 24; ++i) lap();
  ASSERT_EQ(txns_done, 24 * 4);

  const ReplicatedWal::Stats warm = wal.stats();
  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "transaction lap (lock -> append -> execute -> unlock) performed "
      << (alloc_count() - before) << " heap allocations";
  EXPECT_EQ(txns_done, 28 * 4);

  // Sanity: the laps really committed records, shared commit batches
  // and execute batches, and cycled the locks.
  const ReplicatedWal::Stats& st = wal.stats();
  EXPECT_EQ(st.records_appended, 28u * 4);
  EXPECT_EQ(st.gwritev_batches - warm.gwritev_batches, 4u * 3)
      << "the third and fourth records of a lap share one commit batch";
  EXPECT_EQ(st.exec_batches - warm.exec_batches, 4u * 3)
      << "one execute batch applies two transactions' records";
  EXPECT_EQ(locks.stats().wr_acquired, 28u * 4);
  for (uint32_t k = 0; k < kTxnsPerLap; ++k) {
    uint64_t word = ~uint64_t{0};
    group.replica_load(0, layout.lock_offset(1 + k), &word, 8);
    EXPECT_EQ(word, 0u);  // released
  }
}

// The read-lock path: two readers on one replica (the second one's
// pipelined increment misses and is reissued against the count it
// found), then a reader that arrives while a writer holds the lock (its
// increment lands, the check sees the writer, it backs out with a
// decrement and probes the writer word until the writer releases).
// Every step is a slot-indexed continuation, so a warm lap allocates
// nothing.
TEST(NicAllocTransaction, ReadLockLapAllocatesNothing) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  layout.num_locks = 16;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 64,
                        .max_inflight = 16});
  GroupLockManager locks(group, layout);
  sim::EventLoop& loop = cluster.loop();

  int reads_done = 0;
  bool writer_released = false;
  auto lap = [&] {
    for (int i = 0; i < 2; ++i) {
      locks.rd_lock(2, 1, [&](bool ok) {
        if (ok) locks.rd_unlock(2, 1, [&] { ++reads_done; });
      });
    }
    loop.run_until(loop.now() + sim::msec(1));

    writer_released = false;
    locks.wr_lock(2, /*owner=*/7, [&](bool ok) {
      if (!ok) return;
      locks.rd_lock(2, 1, [&](bool ok2) {
        if (ok2 && writer_released) {
          locks.rd_unlock(2, 1, [&] { ++reads_done; });
        }
      });
      loop.schedule_after(sim::usec(60), [&] {
        writer_released = true;
        locks.wr_unlock(2, {});
      });
    });
    loop.run_until(loop.now() + sim::msec(1));
  };

  // Warm-up: grow the read/add/write/unlock slot pools, the group's
  // pending tables, the NIC rings, and the event slab.
  for (int i = 0; i < 24; ++i) lap();
  ASSERT_EQ(reads_done, 24 * 3);

  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "read-lock lap (rd_lock -> rd_unlock, with a back-out against a "
         "held write lock) performed "
      << (alloc_count() - before) << " heap allocations";
  EXPECT_EQ(reads_done, 28 * 3);

  // Sanity: every read lock was granted and released, and each lap's
  // third reader was refused while the writer held the lock.
  EXPECT_EQ(locks.stats().rd_acquired, 28u * 3);
  EXPECT_EQ(locks.stats().wr_acquired, 28u);
  uint64_t word = ~uint64_t{0}, count = ~uint64_t{0};
  group.replica_load(1, layout.lock_offset(2), &word, 8);
  group.replica_load(1, layout.reader_offset(2), &count, 8);
  EXPECT_EQ(word, 0u);
  EXPECT_EQ(count, 0u);
}

// The group-commit datapath: a burst of appends stages records into the
// WAL's pending ring, issues multi-extent gWRITEV batches (stage ->
// gwritev -> gFLUSH -> complete), and drains with ExecuteAndAdvance. In
// steady state the whole cycle — staged-ring churn, extent packing, the
// kWriteV descriptor patch, NOP-padded chain execution, batched
// completions, latency histogram recording — must not touch the heap.
TEST(NicAllocTransaction, GroupCommitGwritevLapAllocatesNothing) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  layout.num_locks = 16;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 64,
                        .max_inflight = 16});
  ReplicatedWal::Options wo;
  wo.staged_capacity = 16;
  wo.loop = &cluster.loop();
  ReplicatedWal wal(group, layout, wo);

  const std::vector<uint8_t> payload(48, 0x5C);
  std::vector<ReplicatedWal::Entry> entries;
  entries.push_back({/*db_offset=*/128, payload});

  uint64_t committed = 0;
  auto lap = [&] {
    // Burst: the first append issues its batch immediately; the rest
    // stage into the pending ring and flush as grouped gwritevs when the
    // in-flight batch's chain ack frees the window.
    for (int k = 0; k < 6; ++k) {
      ASSERT_TRUE(wal.append(entries, [&](uint64_t) { ++committed; }));
    }
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
    while (wal.execute_and_advance(ReplicatedWal::Done{})) {
    }
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  };

  for (int i = 0; i < 24; ++i) lap();
  ASSERT_EQ(committed, 24u * 6u);
  ASSERT_GT(wal.stats().gwritev_batches, 0u);
  ASSERT_GT(wal.records_per_gwrite().max(), 1);  // batching really happened

  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "group-commit lap (stage -> gwritev -> gflush -> complete) "
      << "performed " << (alloc_count() - before) << " heap allocations";
  EXPECT_EQ(committed, 28u * 6u);
  EXPECT_EQ(wal.commit_latency().count(), committed);
  EXPECT_EQ(group.counters().gwritevs, wal.stats().gwritev_batches);
}

// The absorbing execute lap: eight records cycle over three DB offsets
// and commit before one execute batch drains them all, so that batch
// applies only the newest entry at each offset and absorbs the other
// five. The walk's entry scratch is reused and the absorption sort runs
// in place, so a warm lap allocates nothing.
TEST(NicAllocTransaction, AbsorbingExecuteLapAllocatesNothing) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 64 << 10;
  layout.num_locks = 16;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 64,
                        .max_inflight = 16});
  ReplicatedWal::Options wo;
  wo.staged_capacity = 16;
  ReplicatedWal wal(group, layout, wo);

  const std::vector<uint8_t> payload(48, 0x6D);
  std::vector<ReplicatedWal::Entry> entries[3];
  for (uint64_t k = 0; k < 3; ++k) entries[k].push_back({k * 64, payload});

  constexpr int kRecordsPerLap = 8;
  uint64_t committed = 0;
  auto lap = [&] {
    for (int k = 0; k < kRecordsPerLap; ++k) {
      ASSERT_TRUE(wal.append(entries[k % 3], [&](uint64_t) { ++committed; }));
    }
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
    ASSERT_TRUE(wal.execute_and_advance(ReplicatedWal::Done{}));
    ASSERT_FALSE(wal.execute_and_advance(ReplicatedWal::Done{}));
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  };

  for (int i = 0; i < 24; ++i) lap();
  ASSERT_EQ(committed, 24u * kRecordsPerLap);

  const ReplicatedWal::Stats warm = wal.stats();
  const uint64_t gmemcpys = group.counters().gmemcpys;
  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "absorbing execute lap performed " << (alloc_count() - before)
      << " heap allocations";
  EXPECT_EQ(committed, 28u * kRecordsPerLap);
  EXPECT_EQ(wal.stats().exec_batches - warm.exec_batches, 4u);
  EXPECT_EQ(wal.stats().entries_absorbed - warm.entries_absorbed, 4u * 5);
  EXPECT_EQ(group.counters().gmemcpys - gmemcpys, 4u * 3);
}

// The copy-discipline gate: a 64 KB gWRITE through a 3-replica chain
// must move payload bytes exactly 1 + num_sinks times — one DMA-in
// gather at the source NIC and one DMA-out into each sink's region.
// The chain-forward hops borrow the bytes the upstream WRITE landed
// (zero-copy), so the global PayloadBuf::bytes_copied() delta per op is
// exact, not an upper bound: a reintroduced forward gather, an extra
// staging copy, or an unexpected copy-on-write materialization all show
// up as a precise mismatch. The lap must also stay allocation-free once
// the 64 KB payload blocks are pooled.
TEST(NicAllocTransaction, ChainedGwriteCopiesExactlyOncePerSink) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  HyperLoopGroup group(
      cluster.server(3), chain_replicas(cluster),
      {.region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16});

  constexpr uint32_t kLen = 64 << 10;
  std::vector<uint8_t> payload(kLen);
  for (uint32_t i = 0; i < kLen; ++i) payload[i] = static_cast<uint8_t>(i * 7);
  group.client_store(0, payload.data(), kLen);

  int laps_done = 0;
  auto lap = [&] {
    group.gwrite(0, kLen, /*flush=*/true, [&] { ++laps_done; });
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  };

  for (int i = 0; i < 8; ++i) lap();
  ASSERT_EQ(laps_done, 8);

  const uint64_t bytes_before = rdma::PayloadBuf::bytes_copied();
  const uint64_t client_before =
      cluster.server(3).nic().counters().payload_bytes_copied;
  const uint64_t r0_before =
      cluster.server(0).nic().counters().payload_bytes_copied;
  const uint64_t allocs_before = alloc_count();
  lap();
  ASSERT_EQ(laps_done, 9);
  EXPECT_EQ(rdma::PayloadBuf::bytes_copied() - bytes_before,
            uint64_t{kLen} * (1 + group.group_size()))
      << "a 64 KB chained gWRITE must copy exactly len * (1 + num_sinks)";
  // Split per NIC: the source gathers once; a sink lands its DMA-out
  // once and forwards by borrowing (no gather).
  EXPECT_EQ(cluster.server(3).nic().counters().payload_bytes_copied -
                client_before,
            uint64_t{kLen});
  EXPECT_EQ(cluster.server(0).nic().counters().payload_bytes_copied -
                r0_before,
            uint64_t{kLen});
  EXPECT_EQ(alloc_count() - allocs_before, 0u)
      << "large-payload lap performed heap allocations";

  // The bytes really replicated: every sink region matches the source.
  std::vector<uint8_t> got(kLen);
  for (size_t r = 0; r < group.group_size(); ++r) {
    group.replica_load(r, 0, got.data(), kLen);
    ASSERT_EQ(std::memcmp(got.data(), payload.data(), kLen), 0)
        << "replica " << r << " diverged";
  }
}

// The read rule of the copy discipline: a one-sided READ of `len` bytes
// moves exactly `len` bytes, its landing. The responder answers with a
// borrow of its region (no gather), the client NIC lands each fragment at
// its final place in the reader's landing ring, and the ReadView points
// at those landed bytes (no copy into a scratch buffer). A 64 KB read
// over 16 KB slots lands four fragments back to back.
TEST(NicAllocTransaction, RemoteReadCopiesExactlyOnce) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  HyperLoopGroup group(
      cluster.server(3), chain_replicas(cluster),
      {.region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16});

  constexpr uint32_t kLen = 64 << 10;
  constexpr uint64_t kOffset = 4096;
  std::vector<uint8_t> payload(kLen);
  for (uint32_t i = 0; i < kLen; ++i) payload[i] = static_cast<uint8_t>(i * 13);
  group.client_store(kOffset, payload.data(), kLen);
  int wrote = 0;
  group.gwrite(kOffset, kLen, /*flush=*/true, [&] { ++wrote; });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  ASSERT_EQ(wrote, 1);

  RemoteReader reader(cluster.server(3), replica_targets(group),
                      {.slots = 32, .slot_size = 16 << 10});
  rdma::HostMemory& client_mem = cluster.server(3).mem();
  const uint8_t* arena = client_mem.view(0, client_mem.capacity());
  int laps_done = 0;
  bool view_ok = false;
  auto lap = [&] {
    view_ok = false;
    reader.read(kOffset, kLen, [&](ReadView v) {
      view_ok = v.size() == kLen && v.data() >= arena &&
                v.data() + v.size() <= arena + client_mem.capacity() &&
                std::memcmp(v.data(), payload.data(), kLen) == 0;
      ++laps_done;
    });
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  };

  for (int i = 0; i < 8; ++i) lap();
  ASSERT_EQ(laps_done, 8);

  const uint64_t bytes_before = rdma::PayloadBuf::bytes_copied();
  const uint64_t client_before =
      cluster.server(3).nic().counters().payload_bytes_copied;
  const uint64_t r0_before =
      cluster.server(0).nic().counters().payload_bytes_copied;
  const uint64_t frags_before = reader.stats().frags_issued;
  const uint64_t allocs_before = alloc_count();
  lap();
  ASSERT_EQ(laps_done, 9);
  EXPECT_EQ(reader.stats().frags_issued - frags_before, 4u);
  EXPECT_EQ(rdma::PayloadBuf::bytes_copied() - bytes_before, uint64_t{kLen})
      << "a 64 KB READ must copy exactly its landing";
  EXPECT_EQ(cluster.server(0).nic().counters().payload_bytes_copied -
                r0_before,
            0u)
      << "the responder must answer with a borrow, not a gather";
  EXPECT_EQ(cluster.server(3).nic().counters().payload_bytes_copied -
                client_before,
            uint64_t{kLen});
  EXPECT_EQ(alloc_count() - allocs_before, 0u)
      << "read lap performed heap allocations";
  EXPECT_TRUE(view_ok)
      << "the view must hold the replica's bytes, in the client's arena";
}

// The read-datapath lap: once the pooled op/join tables and the join
// scratch buffers have warmed to the workload's high-water mark, a
// steady-state read mix — single-shard reads spread across replicas, a
// fragmented large read slicing into slot-sized READs, and a cross-shard
// scan (one extent per shard, as KvStore builds them) joined through the
// ShardedReader — all issued through readv — must perform ZERO heap
// allocations. ReadView hands the caller a window into the landing
// ring; any regression that reintroduces a per-read vector or a SmallFn
// spill fails here.
TEST(NicAllocRead, ShardedReadScanLapAllocatesNothing) {
  // one NIC port per chain
  Cluster cluster{
      {.num_servers = 4, .server = {.cpu = {.num_cores = 8}, .num_nics = 2}}};
  constexpr uint64_t kRegion = 1 << 20;
  constexpr uint32_t kShards = 2;
  constexpr uint64_t kSpan = kRegion / kShards;
  std::vector<std::unique_ptr<ReplicationGroup>> chains;
  for (uint32_t s = 0; s < kShards; ++s) {
    chains.push_back(make_chain(cluster, {.region_size = kRegion,  // identity
                                          .ring_slots = 64,
                                          .max_inflight = 16,
                                          .nic_index = s}));
  }
  ShardedGroup group(std::move(chains), ShardRouter::range(kShards, kSpan));

  // Replicate a pattern straddling the routing boundary so scans touch
  // both shards and every replica serves identical bytes.
  std::vector<uint8_t> fill(32 << 10);
  const uint64_t base = kSpan - (16 << 10);
  for (size_t i = 0; i < fill.size(); ++i) {
    fill[i] = static_cast<uint8_t>((base + i) * 31 + 7);
  }
  group.client_store(base, fill.data(), static_cast<uint32_t>(fill.size()));
  int wrote = 0;
  group.gwrite(base, 16 << 10, false, [&] { ++wrote; });
  group.gwrite(kSpan, 16 << 10, false, [&] { ++wrote; });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(50));
  ASSERT_EQ(wrote, 2);

  std::vector<std::unique_ptr<RemoteReader>> readers;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto& hl = static_cast<HyperLoopGroup&>(group.shard(s));
    readers.push_back(std::make_unique<RemoteReader>(
        cluster.server(3), replica_targets(hl),
        RemoteReader::Options{.slots = 8,
                              .slot_size = 4096,
                              .policy = RemoteReader::Policy::kRoundRobin,
                              .nic_index = s}));
  }
  ShardedReader reader(std::move(readers), group.router());
  auto read_one = [&reader](uint64_t offset, uint32_t len, ReadDone done) {
    ReadVec v;
    v.push_back({offset, len});
    reader.readv(v, std::move(done));
  };

  int laps_done = 0;
  auto lap = [&] {
    int done = 0;
    // Replica-spread small reads on both shards (enough per lap to
    // exhaust the 8 slot credits so the park/replay path is exercised
    // too).
    for (int k = 0; k < 12; ++k) {
      read_one(base + static_cast<uint64_t>(k) * 256, 128,
               [&done](ReadView) { ++done; });
      read_one(kSpan + static_cast<uint64_t>(k) * 256, 128,
               [&done](ReadView) { ++done; });
    }
    // A fragmented large read: 12 KB slices across three 4 KB slots.
    read_one(kSpan, 12 << 10,
             [&done](ReadView v) { done += v.size() == (12u << 10); });
    // A cross-shard scatter read: one extent per side of the routing
    // boundary, joined pooled.
    ReadVec scan;
    scan.push_back({kSpan - 4096, 4096});
    scan.push_back({kSpan, 4096});
    reader.readv(scan, [&done](ReadView v) { done += v.size() == 8192u; });
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
    ASSERT_EQ(done, 26);
    ++laps_done;
  };

  // Warm-up: grow the op/join pools, the join scratch and the payload
  // pool to high water. A READ response borrows its replica's region and
  // is never cached, so its pool block returns as soon as it lands.
  for (int i = 0; i < 48; ++i) lap();
  ASSERT_EQ(laps_done, 48);
  ASSERT_GT(reader.stats().scatter_reads, 0u);
  ASSERT_GT(reader.shard(1).stats().frags_issued,
            reader.shard(1).stats().reads_issued)
      << "large reads never fragmented";

  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state read lap (read -> landing -> view) performed "
      << (alloc_count() - before) << " heap allocations";
  EXPECT_EQ(laps_done, 52);

  // Sanity: the reads really spread across the chain replicas.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_GT(reader.replica_frags(r), 0u) << "replica " << r;
  }
  EXPECT_EQ(reader.stats().aborted_reads, 0u);
}

// The kernel-TCP baseline's message path. The baseline is the paper's
// *comparison* system, so its measured costs must come from the modeled
// OS stack (send/recv CPU, scheduling), not from host allocator churn in
// the harness: messages are pooled PayloadBufs that the stack hands to the
// fabric as they are, and a replica forwards the buffer it received, so a
// steady-state command lap — gwrite bursts, gmemcpy, gcas, flush
// barriers, ACKs — is allocation-free once warm.
TEST(NicAllocTcp, TcpReplicationLapAllocatesNothing) {
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};
  core::TcpReplicationGroup::Config gc;
  gc.region_size = 1 << 20;
  std::vector<Server*> reps = {&cluster.server(0), &cluster.server(1),
                               &cluster.server(2)};
  core::TcpReplicationGroup group(cluster.server(3), reps, gc);

  const std::vector<uint8_t> payload(128, 0x5C);
  group.client_store(256, payload.data(),
                     static_cast<uint32_t>(payload.size()));

  int laps_done = 0;
  auto lap = [&] {
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      group.gwrite(256, 128, /*flush=*/i == 7, [&done] { ++done; });
    }
    group.gmemcpy(256, 8192, 128, /*flush=*/true, [&done] { ++done; });
    group.gcas(4096, 0, 0, core::ExecMap::all(3),
               [&done](const core::CasResult&) { ++done; });
    cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
    ASSERT_EQ(done, 10);
    ++laps_done;
  };

  // Warm-up: grow the PayloadBuf pool to the lap's message high-water mark,
  // the pending/waiting rings, scheduler queues, and the event slab.
  for (int i = 0; i < 24; ++i) lap();
  ASSERT_EQ(laps_done, 24);

  const uint64_t sent_before = cluster.server(3).tcp().messages_sent();
  const uint64_t before = alloc_count();
  for (int i = 0; i < 4; ++i) lap();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state TCP replication lap performed "
      << (alloc_count() - before) << " heap allocations";

  // Sanity: the measured laps really pushed messages through the stack.
  EXPECT_GE(cluster.server(3).tcp().messages_sent() - sent_before, 4u * 10u);
  uint64_t out = 0;
  group.replica_load(2, 8192, &out, 8);
  EXPECT_EQ(out & 0xFFu, 0x5Cu);
}

}  // namespace
}  // namespace hyperloop::core
