#include "rdma/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

namespace hyperloop::rdma {
namespace {

Network::Config cfg() {
  Network::Config c;
  c.bandwidth_bps = 56e9;
  c.propagation_delay = sim::nsec(900);
  return c;
}

TEST(Network, DeliversToDestination) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  int got_a = 0, got_b = 0;
  const NicId a = net.attach([&](Packet) { ++got_a; });
  const NicId b = net.attach([&](Packet) { ++got_b; });
  Packet p;
  p.src_nic = a;
  p.dst_nic = b;
  net.transmit(p);
  loop.run();
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(Network, LatencyIncludesPropagationAndSerialization) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  sim::Time arrival = -1;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([&](Packet) { arrival = loop.now(); });
  Packet p;
  p.src_nic = a;
  p.dst_nic = b;
  p.payload.resize(7000 - 64);  // wire bytes = 7000 -> 1us at 56 Gbps
  net.transmit(std::move(p));
  loop.run();
  EXPECT_NEAR(static_cast<double>(arrival), 1000.0 + 900.0, 20.0);
}

TEST(Network, FifoPerSource) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  std::vector<uint64_t> order;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([&](Packet p) { order.push_back(p.psn); });
  for (uint64_t i = 0; i < 10; ++i) {
    Packet p;
    p.src_nic = a;
    p.dst_nic = b;
    p.psn = i;
    p.payload.resize((i % 3) * 4000);  // varying sizes must not reorder
    net.transmit(std::move(p));
  }
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Network, SourcePortSerializes) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  std::vector<sim::Time> arrivals;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([&](Packet) { arrivals.push_back(loop.now()); });
  // Two back-to-back 7000B (1us) packets: second arrives ~1us later.
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.src_nic = a;
    p.dst_nic = b;
    p.payload.resize(7000 - 64);
    net.transmit(std::move(p));
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 1000.0, 20.0);
}

TEST(Network, DistinctSourcesDoNotSerialize) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  std::vector<sim::Time> arrivals;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([](Packet) {});
  const NicId c = net.attach([&](Packet) { arrivals.push_back(loop.now()); });
  for (NicId src : {a, b}) {
    Packet p;
    p.src_nic = src;
    p.dst_nic = c;
    p.payload.resize(7000 - 64);
    net.transmit(std::move(p));
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);  // parallel links
}

PayloadBuf bytes(std::initializer_list<uint8_t> il) {
  PayloadBuf b;
  b.resize_uninit(il.size());
  std::copy(il.begin(), il.end(), b.data());
  return b;
}

TEST(Network, DatagramDelivery) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  PayloadBuf got;
  NicId got_src = 999;
  uint16_t got_port = 0;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([](Packet) {});
  net.set_datagram_handler(b, [&](NicId src, uint16_t port, PayloadBuf buf) {
    got_src = src;
    got_port = port;
    got = std::move(buf);
  });
  PayloadBuf sent = bytes({1, 2, 3});
  const uint8_t* sent_data = sent.data();
  net.transmit_datagram(a, b, 8080, std::move(sent));
  loop.run();
  EXPECT_EQ(got_src, a);
  EXPECT_EQ(got_port, 8080);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.data(), sent_data) << "the bytes were copied in flight";
  EXPECT_EQ(got.data()[2], 3);
}

TEST(Network, SetDatagramHandlerLater) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([](Packet) {});
  int first = 0, second = 0;
  net.set_datagram_handler(b, [&](NicId, uint16_t, PayloadBuf) { ++first; });
  net.set_datagram_handler(b, [&](NicId, uint16_t, PayloadBuf) { ++second; });
  net.transmit_datagram(a, b, 1, bytes({9}));
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// A datagram's wire time counts its 4-byte port header and a 64-byte
// frame on top of its bytes. The kernel-TCP latencies of Fig 2 and Fig 12
// rest on it.
TEST(Network, DatagramWireSizeIsBytesPlusPortHeaderAndFrame) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  constexpr size_t n = 1004;
  // 1004 + 64 and 1004 + 68 bytes serialize in different whole ns.
  ASSERT_NE(net.serialize_time(n + 64), net.serialize_time(n + 68));
  std::vector<sim::Time> arrivals;
  const NicId a = net.attach([](Packet) {});
  const NicId b = net.attach([](Packet) {});
  net.set_datagram_handler(
      b, [&](NicId, uint16_t, PayloadBuf) { arrivals.push_back(loop.now()); });
  for (int i = 0; i < 2; ++i) {
    PayloadBuf p;
    p.resize(n);
    net.transmit_datagram(a, b, 1, std::move(p));
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], net.serialize_time(n + 68));
}

TEST(Network, SerializeTimeScalesWithBytes) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  EXPECT_LT(net.serialize_time(100), net.serialize_time(10000));
  EXPECT_GT(net.serialize_time(0), 0);  // strictly positive keeps FIFO
}

TEST(PayloadBuf, CopySharesOneBlockAndMoveSteals) {
  PayloadBuf a;
  a.resize_uninit(100);
  std::memset(a.data(), 0xAB, 100);
  PayloadBuf b = a;
  EXPECT_TRUE(b.shares_with(a));
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(b.data(), a.data());  // no byte copy
  PayloadBuf c = std::move(b);
  EXPECT_TRUE(c.shares_with(a));
  EXPECT_EQ(a.ref_count(), 2u);  // move transfers, doesn't add
  EXPECT_EQ(b.size(), 0u);       // NOLINT(bugprone-use-after-move)
}

TEST(PayloadBuf, SharedBlockNotRecycledWhileOtherHandleLive) {
  PayloadBuf a;
  a.resize_uninit(100);
  std::memset(a.data(), 0xAB, 100);
  PayloadBuf b = a;  // a retransmit-window copy, say
  a.reset();         // one sharer drops its reference
  // The block must NOT have returned to the pool: a fresh same-class
  // acquisition cannot alias b's live bytes.
  PayloadBuf c;
  c.resize_uninit(100);
  EXPECT_FALSE(c.shares_with(b));
  EXPECT_NE(c.data(), b.data());
  std::memset(c.data(), 0x00, 100);
  EXPECT_EQ(b.data()[0], 0xAB);
  EXPECT_EQ(b.data()[99], 0xAB);
}

TEST(PayloadBuf, FullyReleasedBlockIsRecycledByThePool) {
  const uint8_t* released = nullptr;
  {
    PayloadBuf a;
    a.resize_uninit(256);
    released = a.data();
  }  // last reference gone -> block parks on the 256B free list
  const uint64_t hits_before = PayloadBuf::pool_hits();
  const uint64_t misses_before = PayloadBuf::pool_misses();
  PayloadBuf b;
  b.resize_uninit(200);  // same size class
  EXPECT_EQ(PayloadBuf::pool_hits() - hits_before, 1u);
  EXPECT_EQ(PayloadBuf::pool_misses(), misses_before);
  EXPECT_EQ(b.data(), released) << "the released block is reused first";
}

TEST(Network, TransmitSharesPayloadWithSendersCopy) {
  sim::EventLoop loop;
  Network net(loop, cfg());
  const uint8_t* delivered_data = nullptr;
  const NicId a = net.attach([](Packet) {});
  const NicId b =
      net.attach([&](Packet p) { delivered_data = p.payload.data(); });
  Packet p;
  p.src_nic = a;
  p.dst_nic = b;
  p.payload.resize_uninit(512);
  std::memset(p.payload.data(), 0x5A, 512);
  const uint8_t* sender_data = p.payload.data();
  Packet retained = p;  // models the RC unacked-window copy
  net.transmit(std::move(p));
  loop.run();
  // The in-flight copy and the retained copy reference the same block:
  // forwarding a payload down a replication chain never duplicates bytes.
  EXPECT_EQ(delivered_data, sender_data);
  EXPECT_EQ(retained.payload.data(), sender_data);
  EXPECT_EQ(retained.payload.data()[511], 0x5A);
}

}  // namespace
}  // namespace hyperloop::rdma
