#include "core/hyperloop_group.h"

#include <gtest/gtest.h>

#include <string>

#include "chain_setup.h"

namespace hyperloop::core {
namespace {

struct GroupFixture : ::testing::Test {
  // servers 0..2 = replicas, 3 = client
  Cluster cluster{{.num_servers = 4, .server = {.cpu = {.num_cores = 8}}}};

  HyperLoopGroup::Config gcfg{
      .region_size = 1 << 20, .ring_slots = 64, .max_inflight = 16};

  std::unique_ptr<HyperLoopGroup> make_group() {
    return make_chain(cluster, gcfg);
  }

  void run(sim::Duration d = sim::msec(50)) { cluster.loop().run_until(cluster.loop().now() + d); }
};

// A gWRITE's flush flag, or a later gFLUSH, makes the bytes survive a
// crash on every replica's NVM; an ACKed but unflushed gWRITE can be lost.
TEST_F(GroupFixture, GwriteWithFlushIsDurableEverywhere) {
  auto g = make_group();
  const std::string data = "must-survive-crash";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), true, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    std::string out(data.size(), '\0');
    g->replica_load(i, 0, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
}

TEST_F(GroupFixture, GwriteWithoutFlushCanBeLost) {
  auto g = make_group();
  const std::string data = "volatile";
  g->client_store(0, data.data(), data.size());
  bool done = false;
  g->gwrite(0, data.size(), false, [&] { done = true; });
  run();
  ASSERT_TRUE(done);
  g->replica_server(1).nvm().crash();
  std::string out(data.size(), '\0');
  g->replica_load(1, 0, out.data(), out.size());
  EXPECT_NE(out, data);
}

TEST_F(GroupFixture, GflushMakesPriorWritesDurable) {
  auto g = make_group();
  const std::string data = "flush-later";
  g->client_store(0, data.data(), data.size());
  bool wrote = false, flushed = false;
  g->gwrite(0, data.size(), false, [&] { wrote = true; });
  g->gflush([&] { flushed = true; });
  run();
  ASSERT_TRUE(wrote);
  ASSERT_TRUE(flushed);
  for (size_t i = 0; i < 3; ++i) {
    g->replica_server(i).nvm().crash();
    std::string out(data.size(), '\0');
    g->replica_load(i, 0, out.data(), out.size());
    EXPECT_EQ(out, data) << "replica " << i;
  }
}

// Each replica's NIC executes a gMEMCPY as a local DMA copy and charges
// it to its payload_bytes_copied: on an idle chain one gMEMCPY of L bytes
// raises the replicas' sum by exactly L per replica (the descriptors the
// chain forwards travel as SENDs, which are not data-plane copies).
TEST_F(GroupFixture, GmemcpyChargesOneLocalCopyPerReplica) {
  auto g = make_group();
  constexpr uint32_t kLen = 3000;
  auto replicas_copied = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < g->group_size(); ++i) {
      n += g->replica_server(i).nic().counters().payload_bytes_copied;
    }
    return n;
  };
  const uint64_t before = replicas_copied();
  bool copied = false;
  g->gmemcpy(0, 64 << 10, kLen, false, [&] { copied = true; });
  run();
  ASSERT_TRUE(copied);
  EXPECT_EQ(replicas_copied() - before, uint64_t{kLen} * g->group_size());
}

// stop() tears a group down with ops in flight (group.h). A chain's local
// DMA copy and local CAS are timed NIC events on a loopback QP; one still
// pending when stop() destroys that QP must be dropped when it fires.
TEST_F(GroupFixture, StopDuringLoopbackGmemcpyDropsTheCopy) {
  auto g = make_group();
  bool copied = false;
  g->gmemcpy(0, 512 << 10, 256 << 10, /*flush=*/true, [&] { copied = true; });
  run(sim::usec(10));
  g->stop();
  run();
  EXPECT_FALSE(copied);
  EXPECT_EQ(g->aborted_ops(), 1u);
}

TEST_F(GroupFixture, StopDuringLocalCasDropsTheCas) {
  auto g = make_group();
  bool fired = false;
  g->gcas(0, 0, 1, ExecMap::all(3), [&](const CasResult&) { fired = true; });
  run(sim::nsec(1600));
  g->stop();
  run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(g->aborted_ops(), 1u);
}

// Config::validate() aborts with a diagnostic rather than build a group
// whose credit window admits no op.
TEST(HyperLoopConfigDeathTest, EmptyWindowAborts) {
  const HyperLoopGroup::Config cfg{.ring_slots = 64, .max_inflight = 0};
  EXPECT_DEATH(cfg.validate(), "max_inflight=0; the credit window must "
                               "admit at least one op");
}

}  // namespace
}  // namespace hyperloop::core
