#include "apps/ycsb/workload.h"

#include <cassert>

namespace hyperloop::apps {

WorkloadSpec WorkloadSpec::A() {
  WorkloadSpec s;
  s.read = 0.5;
  s.update = 0.5;
  return s;
}
WorkloadSpec WorkloadSpec::B() {
  WorkloadSpec s;
  s.read = 0.95;
  s.update = 0.05;
  return s;
}
WorkloadSpec WorkloadSpec::C() {
  WorkloadSpec s;
  s.read = 1.0;
  return s;
}
WorkloadSpec WorkloadSpec::D() {
  WorkloadSpec s;
  s.read = 0.95;
  s.insert = 0.05;
  s.dist = KeyDist::kLatest;
  return s;
}
WorkloadSpec WorkloadSpec::E() {
  WorkloadSpec s;
  s.insert = 0.05;
  s.scan = 0.95;
  return s;
}
WorkloadSpec WorkloadSpec::F() {
  WorkloadSpec s;
  s.read = 0.5;
  s.rmw = 0.5;
  return s;
}

WorkloadSpec WorkloadSpec::by_name(char name) {
  switch (name) {
    case 'A': return A();
    case 'B': return B();
    case 'C': return C();
    case 'D': return D();
    case 'E': return E();
    case 'F': return F();
    default: assert(false && "unknown YCSB workload"); return A();
  }
}

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec,
                                     uint64_t initial_records, sim::Rng rng)
    : spec_(spec),
      record_count_(initial_records),
      rng_(rng),
      zipf_(initial_records, 0.99),
      latest_(0.99) {
  assert(initial_records > 0);
}

uint64_t WorkloadGenerator::choose_key() {
  switch (spec_.dist) {
    case WorkloadSpec::KeyDist::kZipfian:
      return zipf_.sample(rng_) % record_count_;
    case WorkloadSpec::KeyDist::kLatest:
      return latest_.sample(rng_, record_count_);
    case WorkloadSpec::KeyDist::kUniform:
      return rng_.next_below(record_count_);
  }
  return 0;
}

Op WorkloadGenerator::next() {
  Op op;
  double p = rng_.next_double();
  if ((p -= spec_.read) < 0) {
    op.type = OpType::kRead;
    op.key = choose_key();
  } else if ((p -= spec_.update) < 0) {
    op.type = OpType::kUpdate;
    op.key = choose_key();
  } else if ((p -= spec_.insert) < 0) {
    op.type = OpType::kInsert;
    op.key = record_count_++;
  } else if ((p -= spec_.scan) < 0) {
    op.type = OpType::kScan;
    op.key = choose_key();
    op.scan_len =
        1 + static_cast<int>(rng_.next_below(
                static_cast<uint64_t>(spec_.max_scan_len)));
  } else {
    op.type = OpType::kRmw;
    op.key = choose_key();
  }
  return op;
}

std::vector<uint8_t> WorkloadGenerator::value_for(uint64_t key,
                                                  uint32_t size) {
  std::vector<uint8_t> v(size);
  uint64_t x = key * 0x9e3779b97f4a7c15ULL + 1;
  // Each xorshift64 step fills 8 bytes, low byte first, and the last step
  // only as many as remain: a shorter value is a prefix of a longer one.
  for (uint32_t i = 0; i < size; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t n = size - i < 8 ? size - i : 8;
    for (uint32_t k = 0; k < n; ++k) {
      v[i + k] = static_cast<uint8_t>(x >> (8 * k));
    }
  }
  return v;
}

}  // namespace hyperloop::apps
