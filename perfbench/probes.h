// Measurement probes the benchmark wraps around the program's layers.
//
// Both are forwarding shims built from public interfaces only:
//
//   Recorder      a StorageEngine in front of the store. Always on: it
//                 keeps every op's simulated latency (exact percentiles,
//                 not histogram buckets), counts ok=false results, stamps
//                 the last completion and checks each read value.
//   TracingGroup  a ReplicationGroup in front of the store's group. Only
//                 in traced runs: it times each primitive from call to
//                 completion in simulated time.
//
// Spans go to a SpanLog whose capacity is reserved up front, so recording
// never allocates; spans past capacity are counted and dropped. In-flight
// callbacks park in index-addressed slot pools and the wrapped callbacks
// capture only [this, index], so the shims add no heap allocation per op
// once the pools reach their high-water mark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "apps/storage_engine.h"
#include "apps/ycsb/workload.h"
#include "core/group.h"
#include "sim/event_loop.h"

namespace perfbench {

using hyperloop::sim::Time;

enum Kind : uint8_t {
  kGwrite, kGwritev, kGmemcpy, kGcas, kGflush,    // group primitives
  kRead, kUpdate, kInsert, kScan, kRmw,           // storage-engine calls
  kNumKinds
};

inline const char* kind_name(uint8_t k) {
  static const char* const kNames[kNumKinds] = {
      "gwrite", "gwritev", "gmemcpy", "gcas", "gflush",
      "read", "update", "insert", "scan", "rmw"};
  return k < kNumKinds ? kNames[k] : "?";
}

struct Span {
  Time start = 0;
  Time end = 0;
  uint8_t kind = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  /// Spans are kept only while enabled (the timed phase); off at first.
  void set_enabled(bool on) { enabled_ = on; }

  void record(uint8_t kind, Time start, Time end) {
    if (!enabled_) return;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{start, end, kind});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Durations (ns) of every span of `kind`.
  std::vector<int64_t> durations(uint8_t kind) const {
    std::vector<int64_t> out;
    for (const Span& s : spans_) {
      if (s.kind == kind) out.push_back(static_cast<int64_t>(s.end - s.start));
    }
    return out;
  }

  /// One line per span: kind, start_ns, end_ns. Returns false on I/O error.
  bool write_tsv(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "kind\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%lld\t%lld\n", kind_name(s.kind),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  bool enabled_ = false;
};

/// Index-addressed pool of in-flight entries with a LIFO free list.
template <typename T>
class SlotPool {
 public:
  explicit SlotPool(size_t reserve) {
    slots_.reserve(reserve);
    free_.reserve(reserve);
  }
  uint32_t claim() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  void release(uint32_t idx) { free_.push_back(idx); }
  T& operator[](uint32_t idx) { return slots_[idx]; }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

class TracingGroup final : public hyperloop::core::ReplicationGroup {
 public:
  using Done = hyperloop::core::Done;
  using CasDone = hyperloop::core::CasDone;

  TracingGroup(hyperloop::core::ReplicationGroup& inner,
               hyperloop::sim::EventLoop& loop, SpanLog& log)
      : inner_(inner), loop_(loop), log_(log), pending_(1024) {}

  size_t group_size() const override { return inner_.group_size(); }
  uint64_t region_size() const override { return inner_.region_size(); }

  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override {
    const uint32_t idx = open(kGwrite, std::move(done));
    inner_.gwrite(offset, len, flush, [this, idx] { close(idx); });
  }
  void gwritev(const hyperloop::core::ExtentVec& extents, bool flush,
               Done done) override {
    const uint32_t idx = open(kGwritev, std::move(done));
    inner_.gwritev(extents, flush, [this, idx] { close(idx); });
  }
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) override {
    const uint32_t idx = open(kGmemcpy, std::move(done));
    inner_.gmemcpy(src_offset, dst_offset, len, flush,
                   [this, idx] { close(idx); });
  }
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            hyperloop::core::ExecMap exec_map, CasDone done) override {
    const uint32_t idx = open(kGcas, {});
    pending_[idx].cas_done = std::move(done);
    inner_.gcas(offset, expected, desired, exec_map,
                [this, idx](const hyperloop::core::CasResult& r) {
                  Pending& p = pending_[idx];
                  CasDone cb = std::move(p.cas_done);
                  log_.record(p.kind, p.start, loop_.now());
                  pending_.release(idx);
                  if (cb) cb(r);
                });
  }
  void gflush(Done done) override {
    const uint32_t idx = open(kGflush, std::move(done));
    inner_.gflush([this, idx] { close(idx); });
  }
  void stop() override { inner_.stop(); }
  void client_store(uint64_t offset, const void* src, uint32_t len) override {
    inner_.client_store(offset, src, len);
  }
  void client_load(uint64_t offset, void* dst, uint32_t len) const override {
    inner_.client_load(offset, dst, len);
  }
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override {
    inner_.replica_load(i, offset, dst, len);
  }

 private:
  struct Pending {
    uint8_t kind = 0;
    Time start = 0;
    Done done;
    CasDone cas_done;
  };

  uint32_t open(uint8_t kind, Done done) {
    const uint32_t idx = pending_.claim();
    Pending& p = pending_[idx];
    p.kind = kind;
    p.start = loop_.now();
    p.done = std::move(done);
    return idx;
  }
  void close(uint32_t idx) {
    Pending& p = pending_[idx];
    Done cb = std::move(p.done);
    log_.record(p.kind, p.start, loop_.now());
    pending_.release(idx);
    if (cb) cb();
  }

  hyperloop::core::ReplicationGroup& inner_;
  hyperloop::sim::EventLoop& loop_;
  SpanLog& log_;
  SlotPool<Pending> pending_;
};

class Recorder final : public hyperloop::apps::StorageEngine {
 public:
  Recorder(hyperloop::apps::StorageEngine& inner,
           hyperloop::sim::EventLoop& loop, uint32_t value_size,
           size_t expected_ops, SpanLog* spans)
      : inner_(inner), loop_(loop), value_size_(value_size), spans_(spans),
        pending_(4096) {
    write_lat_.reserve(expected_ops);
    read_lat_.reserve(expected_ops);
  }

  void insert(uint64_t key, std::vector<uint8_t> value, Done done) override {
    const uint32_t idx = open(kInsert, key, std::move(done));
    inner_.insert(key, std::move(value),
                  [this, idx](bool ok) { close(idx, ok); });
  }
  void update(uint64_t key, std::vector<uint8_t> value, Done done) override {
    const uint32_t idx = open(kUpdate, key, std::move(done));
    inner_.update(key, std::move(value),
                  [this, idx](bool ok) { close(idx, ok); });
  }
  void scan(uint64_t key, int count, Done done) override {
    const uint32_t idx = open(kScan, key, std::move(done));
    inner_.scan(key, count, [this, idx](bool ok) { close(idx, ok); });
  }
  void read_modify_write(uint64_t key, std::vector<uint8_t> value,
                         Done done) override {
    const uint32_t idx = open(kRmw, key, std::move(done));
    inner_.read_modify_write(key, std::move(value),
                             [this, idx](bool ok) { close(idx, ok); });
  }
  void read(uint64_t key, ReadDone done) override {
    const uint32_t idx = open(kRead, key, {});
    pending_[idx].read_done = std::move(done);
    inner_.read(key, [this, idx](bool ok, std::vector<uint8_t> v) {
      Pending& p = pending_[idx];
      if (ok && !value_plausible(p.key, v)) ++bad_reads_;
      ReadDone cb = std::move(p.read_done);
      finish(p, ok);
      pending_.release(idx);
      cb(ok, std::move(v));
    });
  }

  /// Simulated latencies (ns) of update/insert/rmw and of read/scan.
  const std::vector<int64_t>& write_latencies() const { return write_lat_; }
  const std::vector<int64_t>& read_latencies() const { return read_lat_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  /// Reads that returned ok with bytes no workload write could have left.
  uint64_t bad_reads() const { return bad_reads_; }
  Time last_completion() const { return last_done_; }

 private:
  struct Pending {
    uint8_t kind = 0;
    uint64_t key = 0;
    Time start = 0;
    Done done;
    ReadDone read_done;
  };

  uint32_t open(uint8_t kind, uint64_t key, Done done) {
    const uint32_t idx = pending_.claim();
    Pending& p = pending_[idx];
    p.kind = kind;
    p.key = key;
    p.start = loop_.now();
    p.done = std::move(done);
    return idx;
  }
  void close(uint32_t idx, bool ok) {
    Pending& p = pending_[idx];
    Done cb = std::move(p.done);
    finish(p, ok);
    pending_.release(idx);
    cb(ok);
  }
  void finish(const Pending& p, bool ok) {
    const Time now = loop_.now();
    const auto lat = static_cast<int64_t>(now - p.start);
    (p.kind == kRead || p.kind == kScan ? read_lat_ : write_lat_)
        .push_back(lat);
    if (spans_ != nullptr) spans_->record(p.kind, p.start, now);
    ++completed_;
    if (!ok) ++failed_;
    last_done_ = now;
  }

  /// The YCSB driver writes value_for(key) on load/insert, value_for(key+1)
  /// on update and value_for(key+2) on read-modify-write; a read must
  /// return one of them. Comparing a 16-byte prefix keeps the check cheap.
  bool value_plausible(uint64_t key, const std::vector<uint8_t>& v) const {
    if (v.size() != value_size_) return false;
    for (uint64_t d = 0; d < 3; ++d) {
      const auto want = hyperloop::apps::WorkloadGenerator::value_for(key + d, 16);
      if (std::equal(want.begin(), want.end(), v.begin())) return true;
    }
    return false;
  }

  hyperloop::apps::StorageEngine& inner_;
  hyperloop::sim::EventLoop& loop_;
  const uint32_t value_size_;
  SpanLog* spans_;
  SlotPool<Pending> pending_;
  std::vector<int64_t> write_lat_;
  std::vector<int64_t> read_lat_;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t bad_reads_ = 0;
  Time last_done_ = 0;
};

}  // namespace perfbench
