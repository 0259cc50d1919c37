// The repository benchmark: YCSB workloads on the replicated stores.
//
//   ycsb_bench --workload <kv-write|kv-scan|doc-txn> --seed N --seconds S
//              --trace <0|1> [--out DIR] [--ops N] [--corrupt-replica-byte]
//
// One run repeats a *rep* until S wall seconds have passed (at least three
// reps; with --trace 1, at least two untraced and two traced, alternating).
// A rep builds a fresh cluster from the seed, bulk-loads the store, waits
// until the load is durable (set-up), then runs a fixed number of YCSB ops
// in a closed loop (timed phase) and checks the replicas (check phase).
// Every rep of a run simulates exactly the same thing, so all simulated
// metrics and counters must agree bit for bit across reps — the run fails
// if they do not — and the wall-clock metrics are medians over reps.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1). The lines before it print the same numbers as a table, with
// each percentile's sample count. --out writes the result (stamped with
// the build type) and, for traced runs, the spans of the first traced rep.
//
// Exit codes: 0 correct, 1 a check failed (the JSON line still prints),
// 2 bad usage or a build without NDEBUG.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/docstore/docstore.h"
#include "apps/kvstore/kvstore.h"
#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "core/hyperloop_group.h"
#include "core/server.h"
#include "core/sharded_group.h"
#include "core/sharded_reader.h"
#include "probes.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace apps = hyperloop::apps;
namespace core = hyperloop::core;
namespace sim = hyperloop::sim;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------------------
// Workloads

constexpr uint64_t kRecords = 4096;
constexpr uint32_t kValueSize = 1024;
constexpr int kReplicas = 3;
constexpr sim::Duration kSimDeadline = sim::seconds(60);
// The client machine runs the store's front end. With 8 cores kv-write
// keeps it ~85% busy, so reads (memtable hits) queue for a core now and
// then instead of all costing the same wake-up plus service time.
constexpr int kClientCores = 8;

struct Workload {
  const char* name;
  bool doc;           ///< DocStore (else KvStore)
  uint32_t chains;    ///< HyperLoop chains; > 1 means a ShardedGroup
  bool reader;        ///< KvStore scans through a ShardedReader
  char ycsb;          ///< YCSB mix letter
  int clients;        ///< simulated closed-loop clients
  int depth;          ///< ops each client keeps outstanding
  bool tenants;       ///< stress tenants on the replica servers
  uint64_t ops;       ///< ops per rep
  uint64_t slice;     ///< region bytes per shard
  uint64_t log_size;  ///< WAL bytes per shard
  uint32_t num_locks;
  /// Pre-posted chain slots per primitive per replica. Under tenant load
  /// the replica's refill task can be scheduled milliseconds late; the
  /// ring must cover that or ops stall receiver-not-ready and retransmit.
  uint32_t ring_slots;
};

constexpr Workload kWorkloads[] = {
    {"kv-write", false, 4, false, 'A', 8, 8, false, 100000, 2u << 20,
     256u << 10, 16, 2048},
    {"kv-scan", false, 4, true, 'E', 8, 1, false, 40000, 2u << 20, 256u << 10,
     16, 2048},
    {"doc-txn", true, 1, false, 'A', 4, 1, true, 144000, 8u << 20, 1u << 20,
     256, 8192},
};

// The paper's testbed server (§6): 16 cores, 56 Gbps NICs, battery-backed
// DRAM as NVM. Arenas are zeroed eagerly, which is most of set-up time.
core::ServerConfig testbed_server(int cores, uint32_t nics) {
  core::ServerConfig s;
  s.cpu.num_cores = cores;
  s.cpu.context_switch_cost = sim::usec(5);
  s.cpu.timeslice = sim::msec(1);
  s.cpu.wakeup_overhead = sim::usec(3);
  s.mem_capacity = 96u << 20;
  s.nvm_size = 48u << 20;
  s.num_nics = nics;
  return s;
}

// Co-located tenants (the stress-ng analogue): 64 bursty tenants whose
// average load is kPaperIntensity of every core, the regime in which the
// paper's CPU-forwarded baselines develop millisecond tails.
constexpr double kPaperIntensity = 0.66;

void add_stress(core::Cluster& cluster, size_t server) {
  constexpr int kTenants = 64;
  sim::BackgroundLoad::Config lc;
  lc.median_burst = sim::usec(150);
  lc.burst_sigma = 1.2;
  lc.max_batch = 4;
  lc.fanout = 64;
  const double mean_burst_ns = static_cast<double>(lc.median_burst) *
                               std::exp(lc.burst_sigma * lc.burst_sigma / 2.0);
  const double active_ns = (1.0 + lc.fanout) / 2.0 *
                           ((1.0 + lc.max_batch) / 2.0) * mean_burst_ns;
  const int cores = cluster.server(server).sched().num_cores();
  const double util = kPaperIntensity * cores / kTenants;
  lc.mean_think = static_cast<sim::Duration>(active_ns * (1.0 - util) / util);
  cluster.server(server).add_background_load(kTenants, cluster.fork_rng(), lc);
}

// --------------------------------------------------------------------------
// Counters: public component counters, snapshotted around the timed phase.

enum Ctr : int {
  cEvents, cHeapAllocs, cClientBusyNs, cClientSwitches, cReplicaSwitches,
  cWqesPosted, cWqesExecuted, cDoorbells, cPackets, cBytesTx, cPayloadCopied,
  cRetransmits, cRnrStalls, cFlushes,
  cGwrite, cGwritev, cGwritevExtents, cGmemcpy, cGcas, cGflush,
  cSplitGwritevs,
  cWalRecords, cWalBatches, cWalAppendFailures, cWalExecRecords,
  cWalExecBatches,
  cLockConflicts, cLockUndos, cTxnAborted,
  cReads, cReadFrags, cReadBytes, cReplicaFrags0,
  cCheckpoints = cReplicaFrags0 + kReplicas, cReplicaCpuNs,
  kNumCtr
};
using Counters = std::array<int64_t, kNumCtr>;

// One rep's cluster, replication group(s), reader and store.
class Testbed {
 public:
  Testbed(const Workload& w, uint64_t seed, bool traced, size_t span_capacity)
      : w_(w) {
    core::Cluster::Config cc;
    cc.num_servers = kReplicas;  // servers 0..2 replicas, 3 client
    cc.server = testbed_server(16, w.chains);
    cc.seed = seed;
    cluster_ = std::make_unique<core::Cluster>(cc);
    core::ServerConfig client_cfg = testbed_server(kClientCores, w.chains);
    client_cfg.name = "server-" + std::to_string(kReplicas);
    cluster_->add_server(client_cfg);
    if (w.tenants) {
      for (int i = 0; i < kReplicas; ++i) add_stress(*cluster_, i);
    }
    std::vector<core::Server*> reps;
    for (int i = 0; i < kReplicas; ++i) reps.push_back(&cluster_->server(i));
    core::Server& client = cluster_->server(kReplicas);

    std::vector<std::unique_ptr<core::ReplicationGroup>> kids;
    for (uint32_t s = 0; s < w.chains; ++s) {
      core::HyperLoopGroup::Config gc;
      gc.region_size = w.slice * w.chains;  // identity addressing
      gc.ring_slots = w.ring_slots;
      gc.max_inflight = 64;
      gc.nic_index = s;
      auto chain = std::make_unique<core::HyperLoopGroup>(client, reps, gc);
      chains_.push_back(chain.get());
      kids.push_back(std::move(chain));
    }
    if (w.chains == 1) {
      group_ = std::move(kids[0]);
    } else {
      auto sg = std::make_unique<core::ShardedGroup>(
          std::move(kids), core::ShardRouter::range(w.chains, w.slice));
      sharded_ = sg.get();
      group_ = std::move(sg);
    }
    if (w.reader) {
      std::vector<std::unique_ptr<core::RemoteReader>> readers;
      for (uint32_t s = 0; s < w.chains; ++s) {
        core::HyperLoopGroup& hl = *chains_[s];
        std::vector<core::RemoteReader::Target> targets;
        for (size_t i = 0; i < hl.group_size(); ++i) {
          targets.push_back({&hl.replica_server(i), hl.replica_region_base(i),
                             hl.replica_data_rkey(i)});
        }
        core::RemoteReader::Options opts;
        opts.policy = core::RemoteReader::Policy::kRoundRobin;
        opts.nic_index = s;
        readers.push_back(std::make_unique<core::RemoteReader>(
            client, std::move(targets), opts));
      }
      reader_ = std::make_unique<core::ShardedReader>(
          std::move(readers), core::ShardRouter::range(w.chains, w.slice));
    }
    core::ReplicationGroup* store_group = group_.get();
    if (traced) {
      spans_ = std::make_unique<SpanLog>(span_capacity);
      tracer_ = std::make_unique<TracingGroup>(*group_, loop(), *spans_);
      store_group = tracer_.get();
    }

    core::RegionLayout layout;
    layout.region_size = w.slice;
    layout.log_size = w.log_size;
    layout.num_locks = w.num_locks;
    core::ReplicatedWal::Options wal;
    wal.loop = &loop();  // commit-latency histogram
    if (w.doc) {
      apps::DocStore::Config dc;
      dc.layout = layout;
      dc.value_size = kValueSize;
      dc.wal = wal;
      doc_ = std::make_unique<apps::DocStore>(*store_group, client, dc);
      doc_->bulk_load(kRecords);
    } else {
      apps::KvStore::Config kc;
      kc.layout = layout;
      kc.shards = w.chains;
      kc.value_size = kValueSize;
      kc.wal = wal;
      kv_ = std::make_unique<apps::KvStore>(*store_group, client, reps, kc);
      if (reader_) kv_->set_sharded_reader(reader_.get());
      kv_->bulk_load(kRecords);
    }
  }

  sim::EventLoop& loop() { return cluster_->loop(); }
  core::Cluster& cluster() { return *cluster_; }
  apps::StorageEngine& store() {
    return doc_ ? static_cast<apps::StorageEngine&>(*doc_) : *kv_;
  }
  SpanLog* spans() { return spans_.get(); }
  std::unique_ptr<SpanLog> take_spans() { return std::move(spans_); }

  /// Runs the loop in 1 ms slices until `*flag` or `limit` elapses.
  bool run_until_set(const bool& flag, sim::Duration limit) {
    const sim::Time deadline = loop().now() + limit;
    while (!flag && loop().now() < deadline) {
      loop().run_until(std::min(deadline, loop().now() + sim::msec(1)));
    }
    return flag;
  }

  /// gFLUSH through the whole group and wait for it.
  bool flush() {
    bool done = false;
    group_->gflush([&done] { done = true; });
    return run_until_set(done, sim::seconds(1));
  }

  Counters snapshot() const {
    Counters c{};
    core::Cluster& cl = *cluster_;
    c[cEvents] = static_cast<int64_t>(cl.loop().executed());
    c[cHeapAllocs] = static_cast<int64_t>(cl.loop().callback_heap_allocs());
    core::Server& client = cl.server(kReplicas);
    c[cClientBusyNs] = client.sched().total_busy();
    c[cClientSwitches] =
        static_cast<int64_t>(client.sched().total_context_switches());
    for (int i = 0; i < kReplicas; ++i) {
      c[cReplicaSwitches] += static_cast<int64_t>(
          cl.server(i).sched().total_context_switches());
    }
    for (size_t s = 0; s < cl.size(); ++s) {
      for (size_t n = 0; n < cl.server(s).num_nics(); ++n) {
        const auto& k = cl.server(s).nic(n).counters();
        c[cWqesPosted] += static_cast<int64_t>(k.wqes_posted);
        c[cWqesExecuted] += static_cast<int64_t>(k.wqes_executed);
        c[cDoorbells] += static_cast<int64_t>(k.doorbells);
        c[cPackets] += static_cast<int64_t>(k.packets_tx);
        c[cBytesTx] += static_cast<int64_t>(k.bytes_tx);
        c[cPayloadCopied] += static_cast<int64_t>(k.payload_bytes_copied);
        c[cRetransmits] += static_cast<int64_t>(k.retransmits);
        c[cRnrStalls] += static_cast<int64_t>(k.rnr_stalls);
        c[cFlushes] += static_cast<int64_t>(k.flushes);
      }
    }
    for (const core::HyperLoopGroup* hl : chains_) {
      const auto& k = hl->counters();
      c[cGwrite] += static_cast<int64_t>(k.gwrites);
      c[cGwritev] += static_cast<int64_t>(k.gwritevs);
      c[cGwritevExtents] += static_cast<int64_t>(k.gwritev_extents);
      c[cGmemcpy] += static_cast<int64_t>(k.gmemcpys);
      c[cGcas] += static_cast<int64_t>(k.gcas);
      c[cGflush] += static_cast<int64_t>(k.gflushes);
      for (size_t i = 0; i < hl->group_size(); ++i) {
        c[cReplicaCpuNs] += hl->replica_cpu_time(i);
      }
    }
    if (sharded_ != nullptr) {
      c[cSplitGwritevs] = static_cast<int64_t>(sharded_->stats().split_gwritevs);
    }
    const core::ReplicatedWal::Stats wal =
        doc_ ? doc_->wal().stats() : kv_->sharded_wal().totals();
    c[cWalRecords] = static_cast<int64_t>(wal.records_appended);
    c[cWalBatches] = static_cast<int64_t>(wal.gwritev_batches);
    c[cWalAppendFailures] = static_cast<int64_t>(wal.append_failures);
    c[cWalExecRecords] = static_cast<int64_t>(wal.records_executed);
    c[cWalExecBatches] = static_cast<int64_t>(wal.exec_batches);
    if (doc_) {
      c[cLockConflicts] = static_cast<int64_t>(doc_->locks().stats().wr_conflicts);
      c[cLockUndos] = static_cast<int64_t>(doc_->locks().stats().partial_undos);
      c[cTxnAborted] = static_cast<int64_t>(doc_->txns().stats().aborted);
    } else {
      c[cCheckpoints] = static_cast<int64_t>(kv_->checkpoints());
    }
    if (reader_) {
      c[cReads] = static_cast<int64_t>(reader_->stats().reads_issued);
      c[cReadBytes] = static_cast<int64_t>(reader_->stats().read_bytes);
      for (uint32_t s = 0; s < reader_->shards(); ++s) {
        c[cReadFrags] +=
            static_cast<int64_t>(reader_->shard(s).stats().frags_issued);
      }
      for (int i = 0; i < kReplicas; ++i) {
        c[cReplicaFrags0 + i] = static_cast<int64_t>(reader_->replica_frags(i));
      }
    }
    return c;
  }

  /// Merged WAL append-to-durable-commit latency histogram.
  hyperloop::stats::Histogram wal_commit_latency() {
    if (doc_) return doc_->wal().commit_latency();
    hyperloop::stats::Histogram h;
    for (uint32_t s = 0; s < w_.chains; ++s) {
      h.merge(kv_->wal(s).commit_latency());
    }
    return h;
  }

  /// Flips one byte in shard 0's DB area of replica 1's copy (and persists
  /// it, so only the byte comparison can catch it).
  void corrupt_replica_byte() {
    const uint64_t off = w_.slice - 4096;  // inside shard 0's DB area
    core::HyperLoopGroup& hl = *chains_[0];
    hyperloop::rdma::HostMemory& mem = hl.replica_server(1).mem();
    const hyperloop::rdma::Addr addr = hl.replica_region_base(1) + off;
    uint8_t b = 0;
    mem.read(addr, &b, 1);
    b ^= 0xFF;
    mem.write(addr, &b, 1);
    hl.replica_server(1).nvm().persist(addr, 1);
  }

  /// Bytes of the replicated region where replica copies differ from the
  /// client's, summed over replicas.
  uint64_t mismatched_bytes() {
    constexpr uint32_t kChunk = 64u << 10;
    std::vector<uint8_t> mine(kChunk), theirs(kChunk);
    uint64_t bad = 0;
    const uint64_t region = group_->region_size();
    for (size_t i = 0; i < group_->group_size(); ++i) {
      for (uint64_t off = 0; off < region; off += kChunk) {
        const auto n = static_cast<uint32_t>(std::min<uint64_t>(kChunk, region - off));
        group_->client_load(off, mine.data(), n);
        group_->replica_load(i, off, theirs.data(), n);
        if (std::memcmp(mine.data(), theirs.data(), n) == 0) continue;
        for (uint32_t j = 0; j < n; ++j) bad += mine[j] != theirs[j];
      }
    }
    return bad;
  }

  /// Written-but-unflushed NVM bytes on the replica servers.
  uint64_t replica_dirty_bytes() {
    uint64_t dirty = 0;
    for (int i = 0; i < kReplicas; ++i) {
      dirty += cluster_->server(i).nvm().dirty_bytes();
    }
    return dirty;
  }

 private:
  const Workload& w_;
  // Declaration order is teardown order reversed: stores go first, the
  // cluster (event loop, servers) last.
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<core::HyperLoopGroup*> chains_;  // owned by group_
  std::unique_ptr<core::ReplicationGroup> group_;
  core::ShardedGroup* sharded_ = nullptr;
  std::unique_ptr<core::ShardedReader> reader_;
  std::unique_ptr<SpanLog> spans_;
  std::unique_ptr<TracingGroup> tracer_;
  std::unique_ptr<apps::KvStore> kv_;
  std::unique_ptr<apps::DocStore> doc_;
};

// --------------------------------------------------------------------------
// One rep

/// Exact nearest-rank percentile of sorted samples (ns).
int64_t percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< thread CPU time of the timed phase
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;      ///< ok=false results
  uint64_t unfinished = 0;  ///< not done at the simulated deadline
  uint64_t bad_reads = 0;
  int64_t sim_elapsed_ns = 0;
  std::vector<int64_t> write_lat, read_lat;  // sorted, ns
  Counters delta{};
  int64_t wal_commit_p50 = 0, wal_commit_p99 = 0;
  uint64_t mismatched = 0;
  uint64_t dirty = 0;
  bool flushed = false;
  std::unique_ptr<SpanLog> spans;

  /// Everything simulated; must be identical across reps of one seed.
  std::vector<int64_t> fingerprint() const {
    std::vector<int64_t> f(delta.begin(), delta.end());
    for (uint64_t v : {attempted, completed, failed, unfinished, bad_reads,
                       mismatched, dirty}) {
      f.push_back(static_cast<int64_t>(v));
    }
    f.push_back(sim_elapsed_ns);
    f.push_back(wal_commit_p50);
    f.push_back(wal_commit_p99);
    for (const auto* v : {&write_lat, &read_lat}) {
      f.push_back(static_cast<int64_t>(v->size()));
      int64_t sum = 0;
      for (int64_t x : *v) sum += x;
      f.push_back(sum);
      f.push_back(percentile(*v, 50));
      f.push_back(percentile(*v, 99));
    }
    return f;
  }
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

Rep run_rep(const Workload& w, uint64_t seed, uint64_t ops, bool traced,
            bool corrupt, Clock::time_point rep_start) {
  Rep r;
  r.traced = traced;
  r.attempted = ops;
  Testbed tb(w, seed, traced, ops * 8);  // doc-txn needs ~6 spans per op
  // Warm-up: the bulk load is on the wire; wait until it is durable.
  tb.flush();

  apps::WorkloadSpec spec = apps::WorkloadSpec::by_name(w.ycsb);
  spec.value_size = kValueSize;
  apps::WorkloadGenerator gen(spec, kRecords, tb.cluster().fork_rng());
  Recorder rec(tb.store(), tb.loop(), kValueSize, ops, tb.spans());
  apps::YcsbDriver::Config dc;
  dc.threads = w.clients;
  dc.batch = w.depth;
  dc.total_ops = ops;
  apps::YcsbDriver driver(tb.loop(), rec, gen, dc);

  bool complete = false;
  Counters after{};
  Clock::time_point wall_end{};
  double cpu_end = 0;
  const Counters before = tb.snapshot();
  const Clock::time_point wall0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  r.setup_s = std::chrono::duration<double>(wall0 - rep_start).count();
  const sim::Time t0 = tb.loop().now();
  SpanLog* spans = tb.spans();
  if (spans != nullptr) spans->set_enabled(true);
  driver.start([&] {
    if (spans != nullptr) spans->set_enabled(false);
    after = tb.snapshot();
    wall_end = Clock::now();
    cpu_end = thread_cpu_s();
    complete = true;
  });
  tb.run_until_set(complete, kSimDeadline);
  if (!complete) {
    if (spans != nullptr) spans->set_enabled(false);
    after = tb.snapshot();
    wall_end = Clock::now();
    cpu_end = thread_cpu_s();
  }
  r.wall_s = std::chrono::duration<double>(wall_end - wall0).count();
  r.cpu_s = cpu_end - cpu0;
  for (int i = 0; i < kNumCtr; ++i) r.delta[i] = after[i] - before[i];
  r.completed = rec.completed();
  r.failed = rec.failed();
  r.unfinished = ops - rec.completed();
  r.bad_reads = rec.bad_reads();
  r.sim_elapsed_ns = static_cast<int64_t>(rec.last_completion() - t0);
  r.write_lat = rec.write_latencies();
  r.read_lat = rec.read_latencies();
  std::sort(r.write_lat.begin(), r.write_lat.end());
  std::sort(r.read_lat.begin(), r.read_lat.end());
  const hyperloop::stats::Histogram commit = tb.wal_commit_latency();
  r.wal_commit_p50 = commit.percentile(50);
  r.wal_commit_p99 = commit.percentile(99);

  // Check phase: let background work (checkpoints) settle, flush, then
  // every replica must hold the client's bytes, durably.
  tb.loop().run_until(tb.loop().now() + sim::msec(20));
  r.flushed = tb.flush();
  if (corrupt) tb.corrupt_replica_byte();
  r.mismatched = tb.mismatched_bytes();
  r.dirty = tb.replica_dirty_bytes();
  r.spans = tb.take_spans();
  return r;
}

// --------------------------------------------------------------------------
// Reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

double ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, double setup_s,
                               double wall_ops) {
  const Rep& r = reps[0];
  const auto ops = static_cast<int64_t>(r.completed);
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  auto n = [](const std::vector<int64_t>& v) {
    return "n=" + std::to_string(v.size());
  };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", setup_s, "s", "median of reps"},
      {"wall_ops_per_s", wall_ops, "1/s", "median of reps"},
      {"sim_ops_per_s",
       static_cast<double>(ops) / (static_cast<double>(r.sim_elapsed_ns) / 1e9),
       "1/s", "to the last completion"},
      {"write_p50_us", us(percentile(r.write_lat, 50)), "us", n(r.write_lat)},
      {"write_p99_us", us(percentile(r.write_lat, 99)), "us", n(r.write_lat)},
      {"read_p50_us", us(percentile(r.read_lat, 50)), "us", n(r.read_lat)},
      {"read_p99_us", us(percentile(r.read_lat, 99)), "us", n(r.read_lat)},
      {"replica_cpu_us_per_op", ratio(r.delta[cReplicaCpuNs], ops) / 1000.0,
       "us", ""},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& reps,
                              double overhead_pct) {
  const Rep& r = reps[0];
  const Counters& d = r.delta;
  const auto ops = static_cast<int64_t>(r.completed);
  auto per_op = [&](Ctr c) { return ratio(d[c], ops); };
  // Primitive spans come from the first traced rep (identical in all).
  const Rep* traced = nullptr;
  for (const Rep& x : reps) {
    if (x.traced) {
      traced = &x;
      break;
    }
  }
  auto span_us = [&](uint8_t kind, double p) {
    if (traced == nullptr || !traced->spans) return 0.0;
    std::vector<int64_t> v = traced->spans->durations(kind);
    std::sort(v.begin(), v.end());
    return static_cast<double>(percentile(v, p)) / 1000.0;
  };
  int64_t lo = INT64_MAX, hi = 0;
  for (int i = 0; i < kReplicas; ++i) {
    lo = std::min(lo, d[cReplicaFrags0 + i]);
    hi = std::max(hi, d[cReplicaFrags0 + i]);
  }
  return {
      {"sim.events_per_op", per_op(cEvents), "count", ""},
      {"sim.callback_heap_allocs_per_op", per_op(cHeapAllocs), "count", ""},
      {"sim.client_cpu_us_per_op", per_op(cClientBusyNs) / 1000.0, "us", ""},
      {"sim.client_ctx_switches_per_op", per_op(cClientSwitches), "count", ""},
      {"sim.replica_ctx_switches_per_op", per_op(cReplicaSwitches), "count",
       ""},
      {"rdma.wqes_posted_per_op", per_op(cWqesPosted), "count", ""},
      {"rdma.wqes_executed_per_op", per_op(cWqesExecuted), "count", ""},
      {"rdma.doorbells_per_op", per_op(cDoorbells), "count", ""},
      {"rdma.packets_per_op", per_op(cPackets), "count", ""},
      {"rdma.bytes_tx_per_op", per_op(cBytesTx), "B", ""},
      {"rdma.payload_bytes_copied_per_op", per_op(cPayloadCopied), "B", ""},
      {"rdma.retransmits", static_cast<double>(d[cRetransmits]), "count", ""},
      {"rdma.rnr_stalls", static_cast<double>(d[cRnrStalls]), "count", ""},
      {"nvm.flushes_per_op", per_op(cFlushes), "count", ""},
      {"group.gwrite_per_op", per_op(cGwrite), "count", ""},
      {"group.gwritev_per_op", per_op(cGwritev), "count", ""},
      {"group.gmemcpy_per_op", per_op(cGmemcpy), "count", ""},
      {"group.gcas_per_op", per_op(cGcas), "count", ""},
      {"group.gflush_per_op", per_op(cGflush), "count", ""},
      {"group.gwritev_p50_us", span_us(kGwritev, 50), "us", "traced"},
      {"group.gwritev_p99_us", span_us(kGwritev, 99), "us", "traced"},
      {"group.gcas_p50_us", span_us(kGcas, 50), "us", "traced"},
      {"group.gcas_p99_us", span_us(kGcas, 99), "us", "traced"},
      {"group.gmemcpy_p50_us", span_us(kGmemcpy, 50), "us", "traced"},
      {"group.gmemcpy_p99_us", span_us(kGmemcpy, 99), "us", "traced"},
      {"group.extents_per_gwritev", ratio(d[cGwritevExtents], d[cGwritev]),
       "count", ""},
      {"group.split_gwritevs_per_op", per_op(cSplitGwritevs), "count", ""},
      {"wal.records_per_gwritev", ratio(d[cWalRecords], d[cWalBatches]),
       "count", ""},
      {"wal.commit_p50_us", static_cast<double>(r.wal_commit_p50) / 1000.0,
       "us", "histogram"},
      {"wal.commit_p99_us", static_cast<double>(r.wal_commit_p99) / 1000.0,
       "us", "histogram"},
      {"wal.append_failures_per_op", per_op(cWalAppendFailures), "count", ""},
      {"wal.records_per_exec_batch",
       ratio(d[cWalExecRecords], d[cWalExecBatches]), "count", ""},
      {"lock.wr_conflicts_per_op", per_op(cLockConflicts), "count", ""},
      {"lock.partial_undos", static_cast<double>(d[cLockUndos]), "count", ""},
      {"txn.aborted", static_cast<double>(d[cTxnAborted]), "count", ""},
      {"reader.frags_per_read", ratio(d[cReadFrags], d[cReads]), "count", ""},
      {"reader.bytes_per_read", ratio(d[cReadBytes], d[cReads]), "B", ""},
      {"reader.replica_spread", ratio(hi == 0 ? 0 : lo, hi), "ratio",
       "min/max frags per replica"},
      {"kv.checkpoints_per_kop", 1000.0 * per_op(cCheckpoints), "count", ""},
      {"trace.overhead_pct", overhead_pct, "%", "traced vs untraced wall"},
  };
}

void print_table(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit,
                m.note.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[128];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    s += buf;
  }
  return s + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;  ///< 0 = the workload's default
  bool corrupt = false;
  std::string out;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--corrupt-replica-byte") {
      a->corrupt = true;
    } else if (k == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--ops" && has_value) {
      a->ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--out" && has_value) {
      a->out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

int run(int argc, char** argv, Clock::time_point process_start) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ycsb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--ops N] [--corrupt-replica-byte]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads) {
    if (args.workload == x.name) w = &x;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t ops = args.ops != 0 ? args.ops : w->ops;
  if (!w->doc) {
    // Inserts take fresh keys; every key's DB slot must fit its shard's
    // slice, with a wide margin over the expected insert count.
    const double inserts = apps::WorkloadSpec::by_name(w->ycsb).insert;
    core::RegionLayout l;
    l.region_size = w->slice;
    l.log_size = w->log_size;
    l.num_locks = w->num_locks;
    const uint64_t keys = kRecords + static_cast<uint64_t>(ops * inserts * 1.2) + 64;
    if ((keys / w->chains + 1) * (16 + kValueSize) > l.db_size()) {
      std::fprintf(stderr, "%s: %llu ops overflow the DB area\n", w->name,
                   static_cast<unsigned long long>(ops));
      return 2;
    }
  }

  std::vector<Rep> reps;
  int untraced = 0, traced = 0;
  const int min_each = args.trace ? 2 : 3;
  while (reps.size() < 64) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - process_start).count();
    const int need_traced = args.trace ? min_each : 0;
    if (elapsed >= args.seconds && untraced >= min_each &&
        traced >= need_traced) {
      break;
    }
    const bool t = args.trace && untraced > traced;
    const Clock::time_point rep_start =
        reps.empty() ? process_start : Clock::now();
    reps.push_back(run_rep(*w, args.seed, ops, t, args.corrupt, rep_start));
    // Traced reps are identical; keep only the first one's spans.
    if (t && traced > 0) reps.back().spans.reset();
    (t ? traced : untraced) += 1;
  }

  // Checks. Every rep simulated the same seed: they must agree exactly.
  std::vector<std::string> problems;
  const std::vector<int64_t> fp = reps[0].fingerprint();
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].fingerprint() != fp) {
      problems.push_back("rep " + std::to_string(i) +
                         " simulated differently from rep 0 (nondeterminism)");
    }
  }
  const Rep& r0 = reps[0];
  if (!r0.flushed) problems.push_back("final gFLUSH did not complete");
  if (r0.mismatched != 0) {
    problems.push_back(std::to_string(r0.mismatched) +
                       " replica bytes differ from the client's region");
  }
  if (r0.dirty != 0) {
    problems.push_back(std::to_string(r0.dirty) +
                       " replica NVM bytes still dirty after gFLUSH");
  }
  if (r0.bad_reads != 0) {
    problems.push_back(std::to_string(r0.bad_reads) +
                       " reads returned a value no write produced");
  }
  for (const Rep& r : reps) {
    if (r.spans && r.spans->dropped() != 0) {
      problems.push_back("span log overflowed");
    }
  }
  const bool correct = problems.empty();

  std::vector<double> setups, wall_ops, wall_untraced, wall_traced;
  for (const Rep& r : reps) {
    setups.push_back(r.setup_s);
    if (r.traced) {
      wall_traced.push_back(r.wall_s);
    } else {
      wall_untraced.push_back(r.wall_s);
      wall_ops.push_back(static_cast<double>(r.completed) / r.wall_s);
    }
  }
  const double overhead =
      wall_traced.empty()
          ? 0.0
          : 100.0 * (median(wall_traced) / median(wall_untraced) - 1.0);
  const std::vector<Metric> e2e =
      end_to_end(reps, median(setups), median(wall_ops));
  const std::vector<Metric> layers = per_layer(reps, overhead);

  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed + r.unfinished;
  }
  std::printf("workload %s  seed %llu  build %s  reps %zu (%d traced)\n",
              w->name, static_cast<unsigned long long>(args.seed),
              PERFBENCH_BUILD_TYPE, reps.size(), traced);
  std::printf("per rep: %llu ops, %llu failed, %llu unfinished, failed_frac %.6f\n",
              static_cast<unsigned long long>(r0.attempted),
              static_cast<unsigned long long>(r0.failed),
              static_cast<unsigned long long>(r0.unfinished),
              static_cast<double>(r0.failed + r0.unfinished) /
                  static_cast<double>(r0.attempted));
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("rep %zu%s: setup %.4f s, timed %.4f s (cpu %.4f s), %.1f ops/s\n", i,
                reps[i].traced ? " (traced)" : "", reps[i].setup_s,
                reps[i].wall_s, reps[i].cpu_s,
                static_cast<double>(reps[i].completed) / reps[i].wall_s);
  }
  std::printf("end to end (tracing off):\n");
  print_table(e2e);
  std::printf("per layer (counters over the timed phase):\n");
  print_table(layers);
  std::printf("check: %s\n", correct ? "ok" : "FAILED");
  for (const std::string& p : problems) std::printf("  %s\n", p.c_str());

  const std::string metrics = json_metrics(args.trace ? layers : e2e);
  if (!args.out.empty()) {
    const std::string stem = args.out + "/" + w->name + "-trace" +
                             (args.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"build_type\": "
                   "\"%s\", \"reps\": %zu, \"correct\": %s,\n"
                   " \"end_to_end\": %s,\n \"per_layer\": %s}\n",
                   w->name, static_cast<unsigned long long>(args.seed),
                   PERFBENCH_BUILD_TYPE, reps.size(),
                   correct ? "true" : "false", json_metrics(e2e).c_str(),
                   json_metrics(layers).c_str());
      std::fclose(f);
    }
    for (const Rep& r : reps) {
      if (r.spans) r.spans->write_tsv((stem + ".spans.tsv").c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto start = perfbench::Clock::now();
#ifndef NDEBUG
  std::fprintf(stderr,
               "ycsb_bench: built without NDEBUG (%s); refusing to report "
               "numbers from a debug build\n",
               PERFBENCH_BUILD_TYPE);
  (void)start;
  (void)argc;
  (void)argv;
  return 2;
#else
  return perfbench::run(argc, argv, start);
#endif
}
