#include "apps/ycsb/driver.h"

#include <algorithm>

namespace hyperloop::apps {

YcsbDriver::YcsbDriver(sim::EventLoop& loop, StorageEngine& engine,
                       WorkloadGenerator& workload, Config cfg)
    : loop_(loop), engine_(engine), workload_(workload), cfg_(cfg) {}

void YcsbDriver::start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  for (int t = 0; t < cfg_.threads; ++t) {
    for (int b = 0; b < std::max(1, cfg_.batch); ++b) thread_loop();
  }
}

void YcsbDriver::thread_loop() {
  if (issued_ >= cfg_.total_ops) return;
  ++issued_;
  const Op op = workload_.next();
  const sim::Time started = loop_.now();
  const OpType t = op.type;

  auto done = [this, t, started](bool ok) { finish_op(t, started, ok); };

  switch (op.type) {
    case OpType::kRead:
      engine_.read(op.key, [done](bool ok, std::vector<uint8_t>) { done(ok); });
      break;
    case OpType::kUpdate:
      engine_.update(op.key,
                     WorkloadGenerator::value_for(op.key + 1,
                                                  workload_.spec().value_size),
                     done);
      break;
    case OpType::kInsert:
      engine_.insert(op.key,
                     WorkloadGenerator::value_for(op.key,
                                                  workload_.spec().value_size),
                     done);
      break;
    case OpType::kScan:
      engine_.scan(op.key, op.scan_len, done);
      break;
    case OpType::kRmw:
      engine_.read_modify_write(
          op.key,
          WorkloadGenerator::value_for(op.key + 2,
                                       workload_.spec().value_size),
          done);
      break;
  }
}

void YcsbDriver::finish_op(OpType t, sim::Time started, bool ok) {
  const int64_t lat = static_cast<int64_t>(loop_.now() - started);
  latency_[static_cast<size_t>(t)].record(lat);
  // Aggregates accumulate here, one extra record per op, so overall() /
  // writes() are O(1) getters instead of merging every bucket array on
  // each call.
  overall_.record(lat);
  if (t == OpType::kUpdate || t == OpType::kInsert || t == OpType::kRmw) {
    writes_.record(lat);
  }
  ++completed_;
  if (!ok) ++failed_;
  if (completed_ == cfg_.total_ops) {
    if (on_complete_) on_complete_();
    return;
  }
  if (cfg_.think_time > 0) {
    loop_.schedule_after(cfg_.think_time, [this] { thread_loop(); });
  } else {
    thread_loop();
  }
}

}  // namespace hyperloop::apps
