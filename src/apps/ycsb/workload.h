// YCSB workload generation (Cooper et al., SoCC'10), matching the mixes
// the paper uses in Table 3:
//
//   A: 50% read / 50% update          zipfian
//   B: 95% read /  5% update          zipfian
//   C: 100% read                      zipfian
//   D: 95% read /  5% insert          latest
//   E:  5% insert / 95% scan          zipfian start keys, uniform length
//   F: 50% read / 50% read-modify-write  zipfian
//
// Records are 32-byte keys with 1024-byte values (§6.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/distributions.h"
#include "sim/rng.h"

namespace hyperloop::apps {

enum class OpType : uint8_t { kRead, kUpdate, kInsert, kScan, kRmw };

struct Op {
  OpType type = OpType::kRead;
  uint64_t key = 0;
  int scan_len = 0;
};

struct WorkloadSpec {
  double read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
  enum class KeyDist { kZipfian, kLatest, kUniform } dist = KeyDist::kZipfian;
  int max_scan_len = 100;
  uint32_t value_size = 1024;

  static WorkloadSpec A();
  static WorkloadSpec B();
  static WorkloadSpec C();
  static WorkloadSpec D();
  static WorkloadSpec E();
  static WorkloadSpec F();
  /// The paper's Table 3 set, keyed by letter.
  static WorkloadSpec by_name(char name);
};

/// Generates a stream of YCSB operations over a growing keyspace.
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadSpec spec, uint64_t initial_records,
                    sim::Rng rng);

  Op next();

  /// Current number of records (grows with inserts).
  uint64_t record_count() const { return record_count_; }
  const WorkloadSpec& spec() const { return spec_; }

  /// Deterministic record value for a key (also used to verify reads).
  static std::vector<uint8_t> value_for(uint64_t key, uint32_t size);

 private:
  uint64_t choose_key();

  WorkloadSpec spec_;
  uint64_t record_count_;
  sim::Rng rng_;
  sim::ZipfianGenerator zipf_;
  sim::LatestGenerator latest_;
};

}  // namespace hyperloop::apps
