// Closed-loop YCSB driver: N logical client threads issue operations
// against a StorageEngine, each waiting for its previous operation to
// complete (optionally with think time). Latency is recorded per op type
// in simulated time, which is what the paper's Figures 11/12 plot.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "apps/storage_engine.h"
#include "apps/ycsb/workload.h"
#include "sim/event_loop.h"
#include "stats/histogram.h"

namespace hyperloop::apps {

class YcsbDriver {
 public:
  struct Config {
    int threads = 4;
    uint64_t total_ops = 10000;
    sim::Duration think_time = 0;
    /// Ops each thread keeps outstanding (pipelined batch depth). With
    /// batch > 1 a thread issues a burst and refills one op per
    /// completion, which is what feeds the storage engine's WAL
    /// group-commit window; batch = 1 is the classic closed loop.
    int batch = 1;
  };

  YcsbDriver(sim::EventLoop& loop, StorageEngine& engine,
             WorkloadGenerator& workload, Config cfg);

  /// Starts all threads; `on_complete` fires when total_ops have finished.
  void start(std::function<void()> on_complete);

  const stats::Histogram& latency(OpType t) const {
    return latency_[static_cast<size_t>(t)];
  }
  /// All operation types merged. Maintained incrementally as ops finish,
  /// so report generation is O(1), not a per-call bucket merge.
  const stats::Histogram& overall() const { return overall_; }
  /// Insert+update+rmw merged (the paper's "insert/update" statements).
  const stats::Histogram& writes() const { return writes_; }

  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }

 private:
  void thread_loop();
  void finish_op(OpType t, sim::Time started, bool ok);

  sim::EventLoop& loop_;
  StorageEngine& engine_;
  WorkloadGenerator& workload_;
  Config cfg_;
  std::array<stats::Histogram, 5> latency_;
  stats::Histogram overall_;  ///< every op (incremental aggregate)
  stats::Histogram writes_;   ///< update+insert+rmw (incremental aggregate)
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  std::function<void()> on_complete_;
};

}  // namespace hyperloop::apps
