#include "core/tcp_stack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/server.h"

namespace hyperloop::core {
namespace {

rdma::PayloadBuf buf(const std::string& s) {
  rdma::PayloadBuf b;
  b.resize_uninit(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string str(const rdma::PayloadBuf& b) {
  return std::string(b.data(), b.data() + b.size());
}

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
                                 rdma::PayloadBuf bytes) {
    got = str(bytes);
    got_src = src;
  });
  const auto proc_a = a.sched().create_process("cli");
  const std::string msg = "GET /";
  a.tcp().send(proc_a, b.nic().id(), 80, buf(msg));
  cluster.loop().run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(got_src, a.nic().id());
}

// Send and receive each charge their process a fixed cost plus 0.25 ns
// per message byte: 64 KiB more bytes cost 16 384 ns more at both ends.
TEST_F(TcpFixture, ChargesCpuOnBothEnds) {
  const auto small_cli = a.sched().create_process("small-cli");
  const auto big_cli = a.sched().create_process("big-cli");
  const auto small_srv = b.sched().create_process("small-srv");
  const auto big_srv = b.sched().create_process("big-srv");
  b.tcp().listen(80, small_srv, [](rdma::NicId, uint16_t, rdma::PayloadBuf) {});
  b.tcp().listen(81, big_srv, [](rdma::NicId, uint16_t, rdma::PayloadBuf) {});
  a.tcp().send(small_cli, b.nic().id(), 80, buf("1"));
  a.tcp().send(big_cli, b.nic().id(), 81, buf(std::string(65537, 'x')));
  cluster.loop().run();
  const auto cpu = [](Server& s, sim::ProcessId p) {
    return s.sched().stats(p).cpu_time;
  };
  EXPECT_GT(cpu(a, small_cli), 0);
  EXPECT_GT(cpu(b, small_srv), 0);
  EXPECT_EQ(cpu(a, big_cli) - cpu(a, small_cli), 16384);
  EXPECT_EQ(cpu(b, big_srv) - cpu(b, small_srv), 16384);
}

TEST_F(TcpFixture, MultiplePortsAreIndependent) {
  const auto p1 = b.sched().create_process("p1");
  const auto p2 = b.sched().create_process("p2");
  int got1 = 0, got2 = 0;
  b.tcp().listen(80, p1,
                 [&](rdma::NicId, uint16_t, rdma::PayloadBuf) { ++got1; });
  b.tcp().listen(81, p2,
                 [&](rdma::NicId, uint16_t, rdma::PayloadBuf) { ++got2; });
  const auto cli = a.sched().create_process("cli");
  a.tcp().send(cli, b.nic().id(), 80, buf("1"));
  a.tcp().send(cli, b.nic().id(), 81, buf("2"));
  a.tcp().send(cli, b.nic().id(), 81, buf("3"));
  cluster.loop().run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 2);
}

TEST_F(TcpFixture, RoundTripRpc) {
  const auto srv = b.sched().create_process("srv");
  const auto cli = a.sched().create_process("cli");
  std::string reply;
  a.tcp().listen(9000, cli, [&](rdma::NicId, uint16_t, rdma::PayloadBuf m) {
    reply = str(m);
  });
  b.tcp().listen(80, srv, [&](rdma::NicId src, uint16_t, rdma::PayloadBuf) {
    b.tcp().send(srv, src, 9000, buf("pong"));
  });
  a.tcp().send(cli, b.nic().id(), 80, buf("ping"));
  cluster.loop().run();
  EXPECT_EQ(reply, "pong");
}

TEST_F(TcpFixture, LatencyGrowsUnderLoad) {
  const auto srv = b.sched().create_process("srv");
  sim::Time recv_at = -1;
  b.tcp().listen(80, srv, [&](rdma::NicId, uint16_t, rdma::PayloadBuf) {
    recv_at = cluster.loop().now();
  });
  const auto cli = a.sched().create_process("cli");

  // Baseline latency (unloaded).
  sim::Time t0 = cluster.loop().now();
  a.tcp().send(cli, b.nic().id(), 80, buf("1"));
  cluster.loop().run();
  const sim::Time unloaded = recv_at - t0;

  // Loaded receiver.
  b.add_background_load(32, cluster.fork_rng(),
                        {.tenants = 0, .median_burst = sim::usec(100),
                         .burst_sigma = 1.0, .mean_think = sim::usec(5)});
  cluster.loop().run_until(cluster.loop().now() + sim::msec(5));
  t0 = cluster.loop().now();
  recv_at = -1;
  a.tcp().send(cli, b.nic().id(), 80, buf("1"));
  cluster.loop().run_until(cluster.loop().now() + sim::msec(500));
  ASSERT_GT(recv_at, 0);
  const sim::Time loaded = recv_at - t0;
  EXPECT_GT(loaded, unloaded * 2);
}

}  // namespace
}  // namespace hyperloop::core
