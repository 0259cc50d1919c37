// Wall-clock performance self-check for the simulator itself (google-
// benchmark). These are not paper experiments: they guard against
// regressions that would make the figure-reproduction benches impractical
// to run (the DES must sustain millions of events per second).
#include <benchmark/benchmark.h>

#include "apps/kvstore/kvstore.h"
#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "bench/common.h"
#include "core/region_layout.h"
#include "core/wal.h"
#include "nvm/dirty_bitmap.h"
#include "nvm/nvm_device.h"
#include "rdma/network.h"
#include "rdma/nic.h"
#include "sim/event_loop.h"
#include "sim/ring.h"
#include "stats/histogram.h"

namespace {

using namespace hyperloop;

// The simulator's heartbeat: schedule -> fire -> reschedule, exactly the
// shape of every NIC/network/scheduler hot path (a fresh small lambda per
// event, not a reused std::function).
void BM_EventLoop(benchmark::State& state) {
  struct Chain {
    sim::EventLoop* loop;
    int* n;
    void operator()() const {
      if (++*n < 10000) loop->schedule_after(1, Chain{loop, n});
    }
  };
  for (auto _ : state) {
    sim::EventLoop loop;
    int n = 0;
    loop.schedule_after(0, Chain{&loop, &n});
    loop.run();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoop);

// Same chain, but the closure carries Packet-sized captured state — the
// shape of the real per-hop delivery closures in network.cc/nic.cc
// (~100 B Packet + this pointer). Callbacks beyond std::function's 16 B
// SBO used to heap-allocate on every schedule; the slab loop keeps them
// in its 112 B inline slot storage.
void BM_EventLoopPacketCapture(benchmark::State& state) {
  struct Blob {
    uint64_t w[12] = {};  // ~sizeof(rdma::Packet); 13 words would spill
                          // the 112 B Chain past the inline slot
  };
  struct Chain {
    sim::EventLoop* loop;
    int* n;
    Blob payload;
    void operator()() const {
      if (++*n < 10000) loop->schedule_after(1, Chain{loop, n, payload});
    }
  };
  static_assert(sizeof(Chain) <= sim::EventLoop::kInlineCallbackBytes);
  for (auto _ : state) {
    sim::EventLoop loop;
    int n = 0;
    loop.schedule_after(0, Chain{&loop, &n, Blob{}});
    loop.run();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoopPacketCapture);

// Wide heap: many concurrently pending events, steady schedule/fire churn.
void BM_EventLoopWide(benchmark::State& state) {
  const int kPending = static_cast<int>(state.range(0));
  struct Tick {
    sim::EventLoop* loop;
    uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      loop->schedule_after(1 + (*remaining % 7), Tick{loop, remaining});
    }
  };
  for (auto _ : state) {
    sim::EventLoop loop;
    uint64_t remaining = 100000;
    for (int i = 0; i < kPending; ++i) {
      loop.schedule_after(i % 13, Tick{&loop, &remaining});
    }
    loop.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * (100000 + state.range(0)));
}
BENCHMARK(BM_EventLoopWide)->Arg(64)->Arg(1024);

// Schedule/cancel churn: timers that are armed and disarmed before firing
// (the RC retransmission-timer pattern — every ACK cancels a timer).
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  sim::EventLoop loop;
  std::vector<sim::EventId> ids(256, 0);
  uint64_t i = 0;
  for (auto _ : state) {
    const size_t k = i % ids.size();
    if (ids[k] != 0) loop.cancel(ids[k]);
    ids[k] = loop.schedule_after(1000000, [] {});
    if (++i % 4096 == 0) loop.run_until(loop.now() + 1);  // drain dead entries
  }
  loop.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopScheduleCancel);

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram h;
  sim::Rng rng(1);
  for (auto _ : state) {
    h.record(static_cast<int64_t>(rng.next_below(10'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  stats::Histogram h;
  sim::Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.record(static_cast<int64_t>(rng.next_below(10'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_ZipfianSample(benchmark::State& state) {
  sim::Rng rng(2);
  sim::ZipfianGenerator z(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianSample);

void BM_YcsbGenerate(benchmark::State& state) {
  apps::WorkloadGenerator gen(apps::WorkloadSpec::A(), 100000, sim::Rng(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YcsbGenerate);

void BM_HyperLoopGwriteSimulated(benchmark::State& state) {
  // Wall time to simulate one offloaded 128B gWRITE end to end.
  using namespace hyperloop::bench;
  auto cluster = make_cluster(3, 42);
  auto group = make_group(*cluster, 3, Backend::kHyperLoop);
  std::vector<uint8_t> payload(128, 1);
  group->client_store(0, payload.data(), 128);
  cluster->loop().run_until(sim::msec(1));
  for (auto _ : state) {
    bool done = false;
    group->gwrite(0, 128, true, [&] { done = true; });
    while (!done) {
      cluster->loop().run_until(cluster->loop().now() + sim::usec(50));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLoopGwriteSimulated);

// The raw NIC datapath, no servers/groups on top: two NICs, batched 128B
// WRITEs, measured in packets handled per wall-clock second (each WRITE is
// one request packet + one ACK through handle_packet on each side). This
// isolates the flat-table lookup + intrusive-window fast path from the CPU
// scheduler and replication logic.
void BM_NicPacketRx(benchmark::State& state) {
  using namespace hyperloop::rdma;
  sim::EventLoop loop;
  Network net(loop, Network::Config{});
  HostMemory mem_a(1 << 20), mem_b(1 << 20);
  Nic a(loop, net, mem_a, nullptr), b(loop, net, mem_b, nullptr);
  CompletionQueue* cq = a.create_cq(1 << 12);
  QueuePair* qa = a.create_qp(cq, nullptr, 1024);
  QueuePair* qb = b.create_qp(nullptr, nullptr, 1024);
  rdma::connect(qa, qb);
  const Addr src = mem_a.alloc(8192);
  const Addr dst = mem_b.alloc(8192);
  MemoryRegion mr = b.register_mr(dst, 8192, kRemoteWrite);

  constexpr int kBatch = 64;
  const uint64_t rx_before = a.counters().packets_rx + b.counters().packets_rx;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      a.post_send(qa, make_write(src, 0, dst + 64 * (i % 64), mr.rkey, 128, 1));
    }
    loop.run();
    Cqe out[kBatch];
    benchmark::DoNotOptimize(cq->poll_many(out, kBatch));
  }
  const uint64_t rx_after = a.counters().packets_rx + b.counters().packets_rx;
  state.SetItemsProcessed(static_cast<int64_t>(rx_after - rx_before));
}
BENCHMARK(BM_NicPacketRx);

// End-to-end packet throughput of the offloaded replication chain: a
// 3-replica HyperLoop group running pipelined 128B gWRITEs, reported as
// packets received per wall-clock second summed over every NIC (replicas +
// client). Unlike BM_HyperLoopGwriteSimulated (latency of one op), this
// keeps a window of operations in flight, so it stresses the per-packet
// fast path with busy windows and interleaved chain hops.
void BM_HyperLoopChainPacketsPerSec(benchmark::State& state) {
  using namespace hyperloop::bench;
  auto cluster = make_cluster(3, 42);
  auto group = make_group(*cluster, 3, Backend::kHyperLoop);
  std::vector<uint8_t> payload(128, 1);
  group->client_store(0, payload.data(), 128);
  cluster->loop().run_until(sim::msec(1));

  auto total_rx = [&] {
    uint64_t rx = 0;
    for (size_t i = 0; i < cluster->size(); ++i) {
      rx += cluster->server(i).nic().counters().packets_rx;
    }
    return rx;
  };

  constexpr int kWindow = 16;
  const uint64_t rx_before = total_rx();
  for (auto _ : state) {
    int outstanding = 0;
    for (int i = 0; i < kWindow; ++i) {
      ++outstanding;
      group->gwrite(0, 128, true, [&] { --outstanding; });
    }
    while (outstanding > 0) {
      cluster->loop().run_until(cluster->loop().now() + sim::usec(50));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_rx() - rx_before));
}
BENCHMARK(BM_HyperLoopChainPacketsPerSec);

// Large-payload replication: one 16 KB - 256 KB gWRITE at a time through a
// 3-replica chain. At these sizes the wall clock is dominated by the real
// memmoves the datapath performs per hop (client DMA gather, per-hop
// forward gathers, per-sink NVM writes), not by per-packet bookkeeping —
// this is the copy-bound regime fig8's 128 B - 8 KB sweep never reaches.
// Ops rotate through four disjoint region slots so one op's source bytes
// are never overwritten while a predecessor still references them.
void BM_LargePayloadReplication(benchmark::State& state) {
  using namespace hyperloop::bench;
  const uint32_t len = static_cast<uint32_t>(state.range(0));
  auto cluster = make_cluster(3, 42);
  auto group = make_group(*cluster, 3, Backend::kHyperLoop);
  std::vector<uint8_t> payload(len, 0x5A);
  constexpr uint64_t kSlots = 4;
  for (uint64_t s = 0; s < kSlots; ++s) {
    group->client_store(s * len, payload.data(), len);
  }
  cluster->loop().run_until(sim::msec(1));
  uint64_t n = 0;
  const uint64_t copied_before = rdma::PayloadBuf::bytes_copied();
  for (auto _ : state) {
    bool done = false;
    group->gwrite((n++ % kSlots) * len, len, true, [&] { done = true; });
    while (!done) {
      cluster->loop().run_until(cluster->loop().now() + sim::usec(50));
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * len);
  // Copy discipline, observable in the bench output: 4.0 = one source
  // DMA-in + three sink DMA-outs (the zero-copy target for group=3).
  state.counters["copies_per_byte"] = benchmark::Counter(
      static_cast<double>(rdma::PayloadBuf::bytes_copied() - copied_before) /
      (static_cast<double>(state.iterations()) * len));
}
BENCHMARK(BM_LargePayloadReplication)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->Arg(256 << 10);

// The client-side op bookkeeping in isolation — no network, no simulated
// time: claim a sequence-indexed pending slot, park the completion
// callback inline, route overflow through the credit-wait ring, then
// complete (mask lookup, move the callback out, invoke). This is the
// per-op control-plane cost every gWRITE/gCAS pays on submit and ack; it
// used to be an unordered_map insert/erase plus a type-erased-callable
// heap spill per operation.
void BM_GroupOpSubmit(benchmark::State& state) {
  struct Slot {
    uint64_t seq = 0;
    bool live = false;
    core::Done done;
  };
  constexpr uint32_t kTable = 64, kMask = kTable - 1, kCredit = 16;
  std::vector<Slot> pending(kTable);
  sim::Ring<core::Done> waiting;
  uint64_t next_seq = 0, complete_seq = 0, inflight = 0;
  uint64_t sink = 0;

  auto issue = [&](core::Done d) {
    Slot& s = pending[next_seq & kMask];
    s.seq = next_seq;
    s.live = true;
    s.done = std::move(d);
    ++next_seq;
    ++inflight;
  };

  for (auto _ : state) {
    // Submit: credit-gated exactly like the groups' submit paths.
    core::Done done{[&sink] { ++sink; }};
    if (inflight >= kCredit) {
      waiting.push_back(std::move(done));
    } else {
      issue(std::move(done));
    }
    // Complete the oldest op once the window is full; steady state is one
    // submit + one completion (+ one ring pop) per item.
    if (inflight >= kCredit) {
      Slot& s = pending[complete_seq & kMask];
      core::Done d = std::move(s.done);
      s.live = false;
      ++complete_seq;
      --inflight;
      d();
      if (!waiting.empty() && inflight < kCredit) {
        core::Done w = std::move(waiting.front());
        waiting.pop_front();
        issue(std::move(w));
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupOpSubmit);

// Replicated-WAL append throughput over the offloaded chain: windows of
// 128 B single-entry appends (record staged directly into the client
// region, replicated with gWRITE + tail-pointer gWRITE w/flush), drained
// with pipelined ExecuteAndAdvance so the log never fills. One item = one
// committed record.
void BM_WalAppendThroughput(benchmark::State& state) {
  using namespace hyperloop::bench;
  auto cluster = make_cluster(3, 42);
  auto group = make_group(*cluster, 3, Backend::kHyperLoop);
  core::RegionLayout layout;  // defaults fit make_group's 4 MiB region
  core::ReplicatedWal wal(*group, layout);
  cluster->loop().run_until(sim::msec(1));

  const std::vector<uint8_t> payload(128, 7);
  std::vector<core::ReplicatedWal::Entry> entries;
  entries.push_back({/*db_offset=*/256, payload});

  constexpr int kWindow = 8;
  auto spin = [&] {
    cluster->loop().run_until(cluster->loop().now() + sim::usec(50));
  };
  for (auto _ : state) {
    int pending = 0;
    for (int i = 0; i < kWindow; ++i) {
      if (wal.append(entries, [&](uint64_t) { --pending; })) ++pending;
    }
    while (pending > 0) spin();
    int execs = 0;
    while (wal.execute_and_advance([&] { --execs; })) ++execs;
    while (execs > 0) spin();
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_WalAppendThroughput);

// The batched WAL datapath at full depth: bursts of appends deep enough
// to keep the group-commit window loaded, so records ride multi-extent
// gWRITEV batches (one chain traversal for up to kCapacity-1 records plus
// the shared tail write) instead of per-record traversals. One item = one
// committed record; the records-per-gwritev ratio is reported as a
// counter so a regression that silently de-batches is visible even if
// wall time stays flat.
void BM_WalAppendBatched(benchmark::State& state) {
  using namespace hyperloop::bench;
  auto cluster = make_cluster(3, 42);
  auto group = make_group(*cluster, 3, Backend::kHyperLoop);
  core::RegionLayout layout;  // defaults fit make_group's 4 MiB region
  core::ReplicatedWal::Options opts;
  opts.staged_capacity = 64;
  core::ReplicatedWal wal(*group, layout, opts);
  cluster->loop().run_until(sim::msec(1));

  const std::vector<uint8_t> payload(128, 7);
  std::vector<core::ReplicatedWal::Entry> entries;
  entries.push_back({/*db_offset=*/256, payload});

  constexpr int kWindow = 32;
  auto spin = [&] {
    cluster->loop().run_until(cluster->loop().now() + sim::usec(50));
  };
  for (auto _ : state) {
    int pending = 0;
    for (int i = 0; i < kWindow; ++i) {
      if (wal.append(entries, [&](uint64_t) { --pending; })) ++pending;
    }
    while (pending > 0) spin();
    int execs = 0;
    while (wal.execute_and_advance([&] { --execs; })) ++execs;
    while (execs > 0) spin();
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
  if (wal.stats().gwritev_batches > 0) {
    state.counters["records_per_gwritev"] = benchmark::Counter(
        static_cast<double>(wal.stats().records_appended) /
        static_cast<double>(wal.stats().gwritev_batches));
  }
}
BENCHMARK(BM_WalAppendBatched);

// Aggregate replication throughput across independent chains (DESIGN.md
// "Sharded datapath"): a sharded KvStore over K HyperLoop chains, one
// NIC per chain, driven by a pipelined update-heavy uniform workload.
// The scaling claim lives in *simulated* time — each chain's WAL
// commits at most two batches at a time, a second only behind a
// single-record one, so a loaded chain is latency-bound and K independent
// chains commit ~K times the records per simulated second. The usual
// wall-clock items_per_second still guards simulator cost; the
// sim_items_per_sec counter carries the scaling signal, and
// compare_selfcheck.py gates BM_ShardedThroughput/4 at >= 1.8x
// BM_ShardedThroughput/1 on it.
void BM_ShardedThroughput(benchmark::State& state) {
  using namespace hyperloop::bench;
  const auto shards = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kSlice = 1u << 20;
  auto cluster =
      make_cluster(3, 42, 16, /*num_nics=*/static_cast<int>(shards));
  auto group = make_sharded_group(*cluster, 3, shards, kSlice);
  std::vector<core::Server*> reps;
  for (int i = 0; i < 3; ++i) reps.push_back(&cluster->server(i));

  apps::KvStore::Config kc;
  kc.layout.region_size = kSlice;  // one slice; the group spans K of them
  kc.layout.log_size = 256u << 10;
  kc.layout.num_locks = 16;
  kc.shards = shards;
  kc.value_size = 128;
  kc.replicas_sync = false;
  apps::KvStore kv(*group, cluster->server(3), reps, kc);
  constexpr uint64_t kRecords = 2048;
  kv.bulk_load(kRecords);
  cluster->loop().run_until(cluster->loop().now() + sim::msec(100));

  apps::WorkloadSpec spec;  // update-heavy, uniform: every chain loaded
  spec.read = 0.05;
  spec.update = 0.95;
  spec.dist = apps::WorkloadSpec::KeyDist::kUniform;
  spec.value_size = 128;

  uint64_t ops_done = 0;
  sim::Duration sim_elapsed = 0;
  uint64_t seed = 7;
  for (auto _ : state) {
    apps::WorkloadGenerator gen(spec, kRecords, sim::Rng(seed++));
    apps::YcsbDriver::Config dc;
    dc.threads = 8;
    dc.batch = 8;  // 64 outstanding: enough demand to load 4 chains
    dc.total_ops = 2000;
    apps::YcsbDriver driver(cluster->loop(), kv, gen, dc);
    bool finished = false;
    const sim::Time t0 = cluster->loop().now();
    driver.start([&] { finished = true; });
    while (!finished) {
      cluster->loop().run_until(cluster->loop().now() + sim::usec(200));
    }
    sim_elapsed += cluster->loop().now() - t0;
    ops_done += driver.completed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops_done));
  state.counters["sim_items_per_sec"] = benchmark::Counter(
      static_cast<double>(ops_done) / sim::to_sec(sim_elapsed));
}
BENCHMARK(BM_ShardedThroughput)->Arg(1)->Arg(2)->Arg(4);

// One-sided read throughput on a single chain: a RemoteReader pool with
// round-robin replica selection, 1 KB reads at a pipelined depth of 32.
// The replica-spread design claim in one number — response serialization
// is charged at the *replica's* TX port, so rotating reads across three
// replicas triples the aggregate response bandwidth a single client can
// draw. sim_items_per_sec carries the simulated-time signal.
void BM_ReadThroughput(benchmark::State& state) {
  using namespace hyperloop::bench;
  constexpr uint64_t kRegion = 4u << 20;
  auto cluster = make_cluster(3, 42);
  std::vector<core::Server*> reps;
  for (int i = 0; i < 3; ++i) reps.push_back(&cluster->server(i));
  core::HyperLoopGroup::Config gc;
  gc.region_size = kRegion;
  gc.ring_slots = 2048;
  gc.max_inflight = 64;
  core::HyperLoopGroup group(cluster->server(3), reps, gc);

  std::vector<core::RemoteReader::Target> targets;
  for (size_t i = 0; i < 3; ++i) {
    targets.push_back({&group.replica_server(i), group.replica_region_base(i),
                       group.replica_data_rkey(i)});
  }
  core::RemoteReader::Options opts;
  opts.policy = core::RemoteReader::Policy::kRoundRobin;
  core::RemoteReader reader(cluster->server(3), std::move(targets), opts);
  cluster->loop().run_until(cluster->loop().now() + sim::msec(1));

  constexpr uint32_t kLen = 1024;
  constexpr int kDepth = 32;
  constexpr int kOpsPerIter = 2000;
  uint64_t ops_done = 0;
  sim::Duration sim_elapsed = 0;
  uint64_t cursor = 0;
  for (auto _ : state) {
    int done = 0, issued = 0;
    const sim::Time t0 = cluster->loop().now();
    while (done < kOpsPerIter) {
      while (issued < kOpsPerIter && issued - done < kDepth) {
        const uint64_t off = (cursor++ * 4099) % (kRegion - kLen);
        reader.read(off, kLen, [&done](core::ReadView) { ++done; });
        ++issued;
      }
      // Refill slices must be shorter than a read's round trip or the
      // slice, not the datapath, caps throughput at kDepth per slice.
      cluster->loop().run_until(cluster->loop().now() + sim::usec(2));
    }
    sim_elapsed += cluster->loop().now() - t0;
    ops_done += static_cast<uint64_t>(done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops_done));
  state.counters["sim_items_per_sec"] = benchmark::Counter(
      static_cast<double>(ops_done) / sim::to_sec(sim_elapsed));
}
BENCHMARK(BM_ReadThroughput);

// Batched scatter scans across K shard chains (DESIGN.md "Read
// datapath"): each scan is one 64 KB striped batch — one extent per
// shard, issued as a single readv through the ShardedReader and rejoined
// by its pooled scatter-join (the shape kvstore/docstore remote scans
// produce). Responses serialize on the *replica-side* per-chain NIC
// ports, so K shards give a client K times the response bandwidth per
// replica; with round-robin replica spread on top, 4 shards must beat 1
// shard by >= 1.8x on sim_items_per_sec (compare_selfcheck.py gates the
// ratio, wall-clock-immune).
void BM_ShardedScan(benchmark::State& state) {
  using namespace hyperloop::bench;
  const auto shards = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kSlice = 1u << 20;
  auto cluster =
      make_cluster(3, 42, 16, /*num_nics=*/static_cast<int>(shards));
  auto group = make_sharded_group(*cluster, 3, shards, kSlice);
  auto reader = make_sharded_reader(*group, cluster->server(3));
  cluster->loop().run_until(cluster->loop().now() + sim::msec(1));

  constexpr uint32_t kScanBytes = 64 << 10;
  constexpr int kDepth = 16;
  constexpr int kOpsPerIter = 400;
  const uint32_t per_shard = kScanBytes / shards;
  uint64_t ops_done = 0;
  sim::Duration sim_elapsed = 0;
  uint64_t cursor = 0;
  for (auto _ : state) {
    int done = 0, issued = 0;
    const sim::Time t0 = cluster->loop().now();
    while (done < kOpsPerIter) {
      while (issued < kOpsPerIter && issued - done < kDepth) {
        core::ReadVec v;
        const uint64_t wander = (cursor++ * 8209) % (kSlice - per_shard);
        for (uint32_t s = 0; s < shards; ++s) {
          v.push_back({s * kSlice + wander, per_shard});
        }
        reader->readv(v, [&done](core::ReadView) { ++done; });
        ++issued;
      }
      // Same slice rationale as BM_ReadThroughput: refill faster than a
      // scan completes so the pipeline, not the slice, sets throughput.
      cluster->loop().run_until(cluster->loop().now() + sim::usec(2));
    }
    sim_elapsed += cluster->loop().now() - t0;
    ops_done += static_cast<uint64_t>(done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops_done));
  state.counters["sim_items_per_sec"] = benchmark::Counter(
      static_cast<double>(ops_done) / sim::to_sec(sim_elapsed));
  // Replica read spread: min/max fragment share across the chain's
  // replicas (1.0 = perfectly even; a collapse to head-only shows here).
  uint64_t lo = ~uint64_t{0}, hi = 0;
  for (size_t r = 0; r < 3; ++r) {
    const uint64_t f = reader->replica_frags(r);
    lo = f < lo ? f : lo;
    hi = f > hi ? f : hi;
  }
  if (hi > 0) {
    state.counters["replica_read_spread"] = benchmark::Counter(
        static_cast<double>(lo) / static_cast<double>(hi));
  }
}
BENCHMARK(BM_ShardedScan)->Arg(1)->Arg(2)->Arg(4);

// The NVM dirty tracker alone: the two-level DirtyBitmap under a mix of
// 70% 64 B marks and 30% 4 KiB clears.
void BM_DirtyBitmapChurn(benchmark::State& state) {
  nvm::DirtyBitmap s(1 << 21);
  sim::Rng rng(4);
  for (auto _ : state) {
    const uint64_t a = rng.next_below(1 << 20);
    if (rng.chance(0.7)) {
      s.mark(a, a + 64);
    } else {
      s.clear_range(a, a + 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirtyBitmapChurn);

// The full durability-tracker hot loop as the simulator drives it: stores
// into the NVM range funnel through HostMemory's range-filtered observer
// into the dirty bitmap, with periodic range persists and gFLUSH-style
// full write-backs. One item = one simulated 128 B store.
void BM_NvmDirtyTracking(benchmark::State& state) {
  using namespace hyperloop::rdma;
  HostMemory mem(8 << 20);
  nvm::NvmDevice nvm(mem, 4 << 20);
  const Addr region = nvm.alloc(1 << 20);
  sim::Rng rng(7);
  uint8_t payload[128] = {1};
  uint64_t n = 0;
  for (auto _ : state) {
    const uint64_t off = rng.next_below((1 << 20) - sizeof(payload));
    mem.write(region + off, payload, sizeof(payload));
    if ((++n & 63) == 0) {
      nvm.persist(region + off, sizeof(payload));
    }
    if ((n & 4095) == 0) {
      nvm.persist_all();  // gFLUSH
      benchmark::DoNotOptimize(nvm.dirty_bytes());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmDirtyTracking);

// The cost a non-NVM store pays for write observation: HostMemory with
// range(0) observers watching a low window, measured on 64 B stores far
// outside every watched range (WQE patches, CQE pushes, payload staging).
// With range filtering this is one compare regardless of observer count.
void BM_HostMemoryWrite(benchmark::State& state) {
  using namespace hyperloop::rdma;
  const int kObservers = static_cast<int>(state.range(0));
  HostMemory mem(4 << 20);
  uint64_t observed = 0;
  const Addr watched = mem.alloc(1 << 20);  // low range: the "NVM" window
  for (int i = 0; i < kObservers; ++i) {
    mem.add_write_observer(watched, watched + (1 << 20),
                           [&observed](Addr, size_t) { ++observed; });
  }
  const Addr hot = mem.alloc(1 << 16);  // far above every watched window
  uint8_t payload[64] = {42};
  uint64_t n = 0;
  for (auto _ : state) {
    mem.write(hot + ((n++ & 1023) << 6), payload, sizeof(payload));
  }
  benchmark::DoNotOptimize(observed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostMemoryWrite)->Arg(0)->Arg(1)->Arg(4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the *benchmark binary's*
// build type into the JSON context. The stock "library_build_type" key
// reflects how the google-benchmark library was compiled (debug in this
// environment), not this binary — comparing numbers from a debug-built
// selfcheck is meaningless, so the compare gate keys off this field.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
