#include "apps/docstore/docstore.h"

#include <gtest/gtest.h>

#include "apps/ycsb/driver.h"
#include "apps/ycsb/workload.h"
#include "chain_setup.h"
#include "core/tcp_group.h"

namespace hyperloop::apps {
namespace {

using core::Cluster;
using core::HyperLoopGroup;
using core::RegionLayout;
using core::Server;

enum class Backend { kHyperLoop, kTcp };

class DocStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  DocStoreTest() {
    cluster_ = std::make_unique<Cluster>(Cluster::Config{
        .num_servers = 4,
        .server = {.cpu = {.num_cores = 8}, .nvm_size = 32u << 20}});
    layout_.region_size = 8u << 20;
    layout_.log_size = 512 << 10;
    layout_.num_locks = 64;
    if (GetParam() == Backend::kHyperLoop) {
      group_ = make_chain(*cluster_, {.region_size = layout_.region_size,
                                      .ring_slots = 128,
                                      .max_inflight = 32});
    } else {
      core::TcpReplicationGroup::Config gc;
      gc.region_size = layout_.region_size;
      group_ = std::make_unique<core::TcpReplicationGroup>(
          cluster_->server(3), chain_replicas(*cluster_), gc);
    }
    DocStore::Config dc;
    dc.layout = layout_;
    dc.value_size = 256;
    store_ = std::make_unique<DocStore>(*group_, cluster_->server(3), dc);
  }

  void run(sim::Duration d = sim::msec(500)) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  RegionLayout layout_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<core::BackendGroup> group_;
  std::unique_ptr<DocStore> store_;
};

TEST_P(DocStoreTest, InsertThenRead) {
  bool ins = false;
  store_->insert(11, WorkloadGenerator::value_for(11, 256),
                 [&](bool ok) { ins = ok; });
  run();
  ASSERT_TRUE(ins);
  bool ok = false;
  std::vector<uint8_t> v;
  store_->read(11, [&](bool o, std::vector<uint8_t> val) {
    ok = o;
    v = std::move(val);
  });
  run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, WorkloadGenerator::value_for(11, 256));
}

TEST_P(DocStoreTest, UpdateIsTransactionalOnAllReplicas) {
  bool upd = false;
  store_->insert(4, WorkloadGenerator::value_for(4, 256), [](bool) {});
  store_->update(4, WorkloadGenerator::value_for(44, 256),
                 [&](bool ok) { upd = ok; });
  run();
  ASSERT_TRUE(upd);
  // The document is applied (not just logged) on every replica.
  const uint64_t stride = 16 + 256;
  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> doc(stride);
    group_->replica_load(i, layout_.db_base() + 4 * stride, doc.data(),
                         static_cast<uint32_t>(stride));
    uint64_t key = 0;
    std::memcpy(&key, doc.data(), 8);
    EXPECT_EQ(key, 4u);
    EXPECT_EQ(std::vector<uint8_t>(doc.begin() + 16, doc.end()),
              WorkloadGenerator::value_for(44, 256));
  }
}

TEST_P(DocStoreTest, CommittedUpdateSurvivesCrashEverywhere) {
  bool upd = false;
  store_->update(9, WorkloadGenerator::value_for(99, 256),
                 [&](bool ok) { upd = ok; });
  run();
  ASSERT_TRUE(upd);
  for (size_t i = 0; i < 3; ++i) {
    group_->replica_server(i).nvm().crash();
    const uint64_t stride = 16 + 256;
    std::vector<uint8_t> doc(stride);
    group_->replica_load(i, layout_.db_base() + 9 * stride, doc.data(),
                         static_cast<uint32_t>(stride));
    EXPECT_EQ(std::vector<uint8_t>(doc.begin() + 16, doc.end()),
              WorkloadGenerator::value_for(99, 256))
        << "replica " << i;
  }
}

TEST_P(DocStoreTest, ReadMissingDocFails) {
  bool ok = true;
  store_->read(12345, [&](bool o, std::vector<uint8_t>) { ok = o; });
  run();
  EXPECT_FALSE(ok);
}

TEST_P(DocStoreTest, ScanFindsLoadedRange) {
  store_->bulk_load(200);
  run(sim::msec(200));
  bool ok = false;
  store_->scan(50, 20, [&](bool o) { ok = o; });
  run();
  EXPECT_TRUE(ok);
}

TEST_P(DocStoreTest, RmwRoundTrips) {
  store_->bulk_load(50);
  run(sim::msec(100));
  bool ok = false;
  store_->read_modify_write(20, WorkloadGenerator::value_for(777, 256),
                            [&](bool o) { ok = o; });
  run();
  ASSERT_TRUE(ok);
  std::vector<uint8_t> v;
  store_->read(20, [&](bool, std::vector<uint8_t> val) { v = std::move(val); });
  run();
  EXPECT_EQ(v, WorkloadGenerator::value_for(777, 256));
}

TEST_P(DocStoreTest, ConcurrentWritersOnSameStripeSerialize) {
  // Keys 0 and 64 share lock stripe 0 (64 stripes): both commit.
  int done = 0;
  store_->update(0, WorkloadGenerator::value_for(1, 256),
                 [&](bool ok) { done += ok ? 1 : 0; });
  store_->update(64, WorkloadGenerator::value_for(2, 256),
                 [&](bool ok) { done += ok ? 1 : 0; });
  run(sim::seconds(2));
  EXPECT_EQ(done, 2);
}

TEST_P(DocStoreTest, YcsbMixRunsClean) {
  store_->bulk_load(500);
  run(sim::msec(200));
  WorkloadSpec spec = WorkloadSpec::A();
  spec.value_size = 256;
  WorkloadGenerator gen(spec, 500, cluster_->fork_rng());
  YcsbDriver::Config dc;
  dc.threads = 4;
  dc.total_ops = 1000;
  YcsbDriver driver(cluster_->loop(), *store_, gen, dc);
  bool complete = false;
  driver.start([&] { complete = true; });
  run(sim::seconds(60));
  ASSERT_TRUE(complete);
  EXPECT_EQ(driver.failed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, DocStoreTest,
                         ::testing::Values(Backend::kHyperLoop, Backend::kTcp),
                         [](const auto& info) {
                           return info.param == Backend::kHyperLoop
                                      ? "HyperLoop"
                                      : "TcpNative";
                         });

// Replica reads via the one-sided reader: target i is chain replica i,
// and a round-robin reader sends the third read to the tail.
TEST(DocStoreReplicaRead, ReadsFromTailReplica) {
  Cluster cluster({.num_servers = 4});
  RegionLayout layout;
  layout.region_size = 4u << 20;
  layout.log_size = 256 << 10;
  layout.num_locks = 64;
  HyperLoopGroup group(cluster.server(3), chain_replicas(cluster),
                       {.region_size = layout.region_size,
                        .ring_slots = 64,
                        .max_inflight = 16});
  DocStore::Config dc;
  dc.layout = layout;
  dc.value_size = 256;
  DocStore store(group, cluster.server(3), dc);
  core::RemoteReader reader(
      cluster.server(3), replica_targets(group),
      {.policy = core::RemoteReader::Policy::kRoundRobin});
  store.set_remote_reader(&reader);

  bool ins = false;
  store.insert(8, WorkloadGenerator::value_for(8, 256),
               [&](bool ok) { ins = ok; });
  cluster.loop().run_until(sim::msec(500));
  ASSERT_TRUE(ins);

  for (size_t replica = 0; replica < 3; ++replica) {
    bool ok = false;
    std::vector<uint8_t> v;
    store.read(8, [&](bool o, std::vector<uint8_t> val) {
      ok = o;
      v = std::move(val);
    });
    cluster.loop().run_until(cluster.loop().now() + sim::msec(100));
    ASSERT_TRUE(ok) << "replica " << replica;
    EXPECT_EQ(v, WorkloadGenerator::value_for(8, 256));
    EXPECT_GT(reader.replica_frags(replica), 0u);
    // The read leaves no read lock behind on the replica it read.
    uint64_t readers = 1;
    group.replica_load(replica, layout.reader_offset(8 % layout.num_locks),
                       &readers, 8);
    EXPECT_EQ(readers, 0u);
  }
  EXPECT_EQ(reader.reads_issued(), 3u);
  EXPECT_EQ(store.locks().stats().rd_acquired, 3u);
  // A missing document read from a replica fails cleanly.
  bool missing = true;
  store.read(9, [&](bool o, std::vector<uint8_t>) { missing = o; });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(100));
  EXPECT_FALSE(missing);
}

}  // namespace
}  // namespace hyperloop::apps
