#include "apps/ycsb/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "apps/ycsb/driver.h"

namespace hyperloop::apps {
namespace {

TEST(WorkloadSpec, MixesSumToOne) {
  for (char w : {'A', 'B', 'D', 'E', 'F'}) {
    const WorkloadSpec s = WorkloadSpec::by_name(w);
    EXPECT_NEAR(s.read + s.update + s.insert + s.scan + s.rmw, 1.0, 1e-9)
        << w;
  }
}

TEST(WorkloadGenerator, MixProportionsMatchTable3) {
  // YCSB-A: 50/50 read/update.
  WorkloadGenerator gen(WorkloadSpec::A(), 1000, sim::Rng(1));
  std::map<OpType, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.next().type];
  EXPECT_NEAR(counts[OpType::kRead] / double(n), 0.5, 0.01);
  EXPECT_NEAR(counts[OpType::kUpdate] / double(n), 0.5, 0.01);
  EXPECT_EQ(counts[OpType::kInsert], 0);
}

TEST(WorkloadGenerator, WorkloadEIsScanHeavy) {
  WorkloadGenerator gen(WorkloadSpec::E(), 1000, sim::Rng(2));
  std::map<OpType, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    Op op = gen.next();
    ++counts[op.type];
    if (op.type == OpType::kScan) {
      EXPECT_GE(op.scan_len, 1);
      EXPECT_LE(op.scan_len, 100);
    }
  }
  EXPECT_NEAR(counts[OpType::kScan] / double(n), 0.95, 0.01);
  EXPECT_NEAR(counts[OpType::kInsert] / double(n), 0.05, 0.01);
}

TEST(WorkloadGenerator, InsertsGrowKeyspaceDensely) {
  WorkloadGenerator gen(WorkloadSpec::D(), 100, sim::Rng(3));
  uint64_t max_insert_key = 0;
  int inserts = 0;
  for (int i = 0; i < 10000; ++i) {
    Op op = gen.next();
    if (op.type == OpType::kInsert) {
      EXPECT_EQ(op.key, 100 + static_cast<uint64_t>(inserts));
      max_insert_key = op.key;
      ++inserts;
    } else {
      EXPECT_LT(op.key, gen.record_count());
    }
  }
  EXPECT_GT(inserts, 0);
  EXPECT_EQ(gen.record_count(), 100 + static_cast<uint64_t>(inserts));
  (void)max_insert_key;
}

TEST(WorkloadGenerator, WorkloadDPrefersRecentKeys) {
  WorkloadGenerator gen(WorkloadSpec::D(), 10000, sim::Rng(4));
  uint64_t reads_in_newest_decile = 0, reads = 0;
  for (int i = 0; i < 50000; ++i) {
    Op op = gen.next();
    if (op.type != OpType::kRead) continue;
    ++reads;
    if (op.key >= gen.record_count() * 9 / 10) ++reads_in_newest_decile;
  }
  EXPECT_GT(reads_in_newest_decile / double(reads), 0.5);
}

TEST(WorkloadGenerator, ZipfianSkewOnWorkloadA) {
  WorkloadGenerator gen(WorkloadSpec::A(), 10000, sim::Rng(5));
  std::map<uint64_t, int> key_counts;
  for (int i = 0; i < 100000; ++i) ++key_counts[gen.next().key];
  // The hottest key should take a disproportionate share.
  int hottest = 0;
  for (auto& [k, c] : key_counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 100000 / 10000 * 20);  // >20x uniform share
}

TEST(WorkloadGenerator, ValuesAreDeterministicPerKey) {
  const auto a = WorkloadGenerator::value_for(42, 1024);
  const auto b = WorkloadGenerator::value_for(42, 1024);
  const auto c = WorkloadGenerator::value_for(43, 1024);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1024u);
  // A shorter value is a prefix of a longer one (readers compare
  // prefixes), partial last word included.
  for (uint32_t n : {0u, 1u, 7u, 8u, 9u, 16u, 1023u}) {
    const auto p = WorkloadGenerator::value_for(42, n);
    ASSERT_EQ(p.size(), n);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), a.begin())) << n;
  }
}

// A trivial synchronous in-memory engine to test the driver itself.
class FakeEngine : public StorageEngine {
 public:
  explicit FakeEngine(sim::EventLoop& loop, sim::Duration delay)
      : loop_(loop), delay_(delay) {}
  void insert(uint64_t, std::vector<uint8_t>, Done done) override {
    finish(std::move(done));
  }
  void update(uint64_t, std::vector<uint8_t>, Done done) override {
    finish(std::move(done));
  }
  void read(uint64_t, ReadDone done) override {
    loop_.schedule_after(delay_,
                         [done = std::move(done)]() mutable { done(true, {}); });
  }
  void scan(uint64_t, int, Done done) override { finish(std::move(done)); }
  void read_modify_write(uint64_t, std::vector<uint8_t>, Done done) override {
    finish(std::move(done));
  }
  int inflight_peak = 0;

 private:
  void finish(Done done) {
    ++inflight_;
    inflight_peak = std::max(inflight_peak, inflight_);
    loop_.schedule_after(delay_, [this, done = std::move(done)]() mutable {
      --inflight_;
      done(true);
    });
  }
  sim::EventLoop& loop_;
  sim::Duration delay_;
  int inflight_ = 0;
};

TEST(YcsbDriver, CompletesAllOpsAndRecordsLatency) {
  sim::EventLoop loop;
  FakeEngine engine(loop, sim::usec(10));
  WorkloadGenerator gen(WorkloadSpec::A(), 1000, sim::Rng(7));
  YcsbDriver::Config cfg;
  cfg.threads = 4;
  cfg.total_ops = 1000;
  YcsbDriver driver(loop, engine, gen, cfg);
  bool complete = false;
  driver.start([&] { complete = true; });
  loop.run();
  ASSERT_TRUE(complete);
  EXPECT_EQ(driver.completed(), 1000u);
  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_EQ(driver.overall().count(), 1000u);
  // Every op took >= the engine delay.
  EXPECT_GE(driver.overall().min(), sim::usec(10));
}

TEST(YcsbDriver, ClosedLoopBoundsConcurrency) {
  sim::EventLoop loop;
  FakeEngine engine(loop, sim::usec(50));
  WorkloadGenerator gen(WorkloadSpec::F(), 1000, sim::Rng(8));
  YcsbDriver::Config cfg;
  cfg.threads = 3;
  cfg.total_ops = 500;
  YcsbDriver driver(loop, engine, gen, cfg);
  driver.start({});
  loop.run();
  EXPECT_LE(engine.inflight_peak, 3);
  EXPECT_EQ(driver.completed(), 500u);
}

TEST(YcsbDriver, WritesHistogramCoversUpdateInsertRmw) {
  sim::EventLoop loop;
  FakeEngine engine(loop, sim::usec(5));
  WorkloadGenerator gen(WorkloadSpec::F(), 1000, sim::Rng(9));
  YcsbDriver::Config cfg;
  cfg.threads = 2;
  cfg.total_ops = 2000;
  YcsbDriver driver(loop, engine, gen, cfg);
  driver.start({});
  loop.run();
  EXPECT_NEAR(driver.writes().count() / 2000.0, 0.5, 0.05);  // F: 50% rmw
}

}  // namespace
}  // namespace hyperloop::apps
