#include "core/tcp_stack.h"

#include <gtest/gtest.h>

#include <string>

#include "core/server.h"

namespace hyperloop::core {
namespace {

struct TcpFixture : ::testing::Test {
  Cluster cluster{{.num_servers = 2, .server = {.cpu = {.num_cores = 4}}}};
  Server& a = cluster.server(0);
  Server& b = cluster.server(1);
};

TEST_F(TcpFixture, DeliversMessageToBoundPort) {
  const auto proc_b = b.sched().create_process("srv");
  std::string got;
  rdma::NicId got_src = 999;
  b.tcp().listen(80, proc_b, [&](rdma::NicId src, uint16_t,
                                 std::vector<uint8_t> bytes) {
    got.assign(bytes.begin(), bytes.end());
    got_src = src;
  });
  const auto proc_a = a.sched().create_process("cli");
  std::string msg = "GET /";
  a.tcp().send(proc_a, b.nic().id(), 80,
               std::vector<uint8_t>(msg.begin(), msg.end()));
  cluster.loop().run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(got_src, a.nic().id());
}

TEST_F(TcpFixture, ChargesCpuOnBothEnds) {
  const auto proc_b = b.sched().create_process("srv");
  b.tcp().listen(80, proc_b,
                 [](rdma::NicId, uint16_t, std::vector<uint8_t>) {});
  const auto proc_a = a.sched().create_process("cli");
  a.tcp().send(proc_a, b.nic().id(), 80, std::vector<uint8_t>(1024));
  cluster.loop().run();
  EXPECT_GT(a.sched().stats(proc_a).cpu_time, 0);
  EXPECT_GT(b.sched().stats(proc_b).cpu_time, 0);
}

TEST_F(TcpFixture, MultiplePortsAreIndependent) {
  const auto p1 = b.sched().create_process("p1");
  const auto p2 = b.sched().create_process("p2");
  int got1 = 0, got2 = 0;
  b.tcp().listen(80, p1,
                 [&](rdma::NicId, uint16_t, std::vector<uint8_t>) { ++got1; });
  b.tcp().listen(81, p2,
                 [&](rdma::NicId, uint16_t, std::vector<uint8_t>) { ++got2; });
  const auto cli = a.sched().create_process("cli");
  a.tcp().send(cli, b.nic().id(), 80, {1});
  a.tcp().send(cli, b.nic().id(), 81, {2});
  a.tcp().send(cli, b.nic().id(), 81, {3});
  cluster.loop().run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 2);
}

TEST_F(TcpFixture, RoundTripRpc) {
  const auto srv = b.sched().create_process("srv");
  const auto cli = a.sched().create_process("cli");
  std::string reply;
  a.tcp().listen(9000, cli, [&](rdma::NicId, uint16_t,
                                std::vector<uint8_t> bytes) {
    reply.assign(bytes.begin(), bytes.end());
  });
  b.tcp().listen(80, srv, [&](rdma::NicId src, uint16_t,
                              std::vector<uint8_t>) {
    std::string r = "pong";
    b.tcp().send(srv, src, 9000, std::vector<uint8_t>(r.begin(), r.end()));
  });
  std::string ping = "ping";
  a.tcp().send(cli, b.nic().id(), 80,
               std::vector<uint8_t>(ping.begin(), ping.end()));
  cluster.loop().run();
  EXPECT_EQ(reply, "pong");
}

TEST_F(TcpFixture, LatencyGrowsUnderLoad) {
  const auto srv = b.sched().create_process("srv");
  sim::Time recv_at = -1;
  b.tcp().listen(80, srv, [&](rdma::NicId, uint16_t, std::vector<uint8_t>) {
    recv_at = cluster.loop().now();
  });
  const auto cli = a.sched().create_process("cli");

  // Baseline latency (unloaded).
  sim::Time t0 = cluster.loop().now();
  a.tcp().send(cli, b.nic().id(), 80, {1});
  cluster.loop().run();
  const sim::Time unloaded = recv_at - t0;

  // Loaded receiver.
  b.add_background_load(32, cluster.fork_rng(),
                        {.tenants = 0, .median_burst = sim::usec(100),
                         .burst_sigma = 1.0, .mean_think = sim::usec(5)});
  cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  t0 = cluster.loop().now();
  recv_at = -1;
  a.tcp().send(cli, b.nic().id(), 80, {1});
  cluster.loop().run_until(cluster.loop().now() + sim::msec(500));
  ASSERT_GT(recv_at, 0);
  const sim::Time loaded = recv_at - t0;
  EXPECT_GT(loaded, unloaded * 2);
}

}  // namespace
}  // namespace hyperloop::core
