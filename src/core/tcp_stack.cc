#include "core/tcp_stack.h"

#include <cassert>
#include <cstring>

#include "core/buf_pool.h"

namespace hyperloop::core {
namespace {

// Wire header: destination port (2 bytes) + source port placeholder.
struct DgramHeader {
  uint16_t dst_port;
  uint16_t src_port;
};

/// CPU to send one message: syscall + copy + protocol.
constexpr sim::Duration kSendCpuBase = sim::usec(4);
constexpr double kSendCpuNsPerByte = 0.25;
/// CPU to deliver one message: interrupt + protocol + copy + wakeup.
constexpr sim::Duration kRecvCpuBase = sim::usec(6);
constexpr double kRecvCpuNsPerByte = 0.25;

}  // namespace

TcpStack::TcpStack(sim::EventLoop& loop, rdma::Network& net,
                   rdma::NicId nic_id, sim::CpuScheduler& sched)
    : loop_(loop), net_(net), nic_id_(nic_id), sched_(sched) {
  net_.set_datagram_handler(
      nic_id_, [this](rdma::NicId src, std::vector<uint8_t> bytes) {
        on_datagram(src, std::move(bytes));
      });
}

void TcpStack::listen(uint16_t port, sim::ProcessId proc, Handler handler) {
  listeners_[port] = Listener{proc, std::move(handler)};
}

void TcpStack::send(sim::ProcessId sender_proc, rdma::NicId dst,
                    uint16_t port, std::vector<uint8_t> data) {
  const auto cpu =
      kSendCpuBase +
      static_cast<sim::Duration>(kSendCpuNsPerByte *
                                 static_cast<double>(data.size()));
  // The sender's process must get a core to push the message through the
  // socket layer; only then do bytes reach the wire.
  sched_.submit(sender_proc, cpu,
                [this, dst, port, d = std::move(data)]() mutable {
                  DgramHeader h{port, 0};
                  std::vector<uint8_t> wire = BufPool::acquire(sizeof(h) + d.size());
                  std::memcpy(wire.data(), &h, sizeof(h));
                  std::memcpy(wire.data() + sizeof(h), d.data(), d.size());
                  BufPool::release(std::move(d));
                  ++sent_;
                  net_.transmit_datagram(nic_id_, dst, std::move(wire));
                });
}

void TcpStack::send_many(sim::ProcessId sender_proc,
                         std::vector<Dgram> msgs) {
  if (msgs.empty()) return;
  sim::Duration cpu = 0;
  for (const Dgram& m : msgs) {
    cpu += kSendCpuBase +
           static_cast<sim::Duration>(kSendCpuNsPerByte *
                                      static_cast<double>(m.data.size()));
  }
  // Same total CPU as per-message send() — the coalescing saves scheduler
  // events, not modeled work — so baseline cost comparisons are unchanged.
  sched_.submit(sender_proc, cpu, [this, ms = std::move(msgs)]() mutable {
    for (Dgram& m : ms) {
      DgramHeader h{m.port, 0};
      std::vector<uint8_t> wire = BufPool::acquire(sizeof(h) + m.data.size());
      std::memcpy(wire.data(), &h, sizeof(h));
      std::memcpy(wire.data() + sizeof(h), m.data.data(), m.data.size());
      BufPool::release(std::move(m.data));
      ++sent_;
      net_.transmit_datagram(nic_id_, m.dst, std::move(wire));
    }
  });
}

void TcpStack::on_datagram(rdma::NicId src, std::vector<uint8_t> bytes) {
  assert(bytes.size() >= sizeof(DgramHeader));
  DgramHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  auto it = listeners_.find(h.dst_port);
  assert(it != listeners_.end() && "datagram for un-bound port");
  // Listener nodes are map-stable and never unbound, so the deferred
  // delivery captures a pointer instead of copying the std::function (a
  // per-message heap allocation the baseline shouldn't pay).
  const Listener* l = &it->second;

  // Strip the wire header in place and hand the same buffer up — no
  // payload copy, no allocation.
  bytes.erase(bytes.begin(), bytes.begin() + sizeof(h));
  const auto cpu =
      kRecvCpuBase +
      static_cast<sim::Duration>(kRecvCpuNsPerByte *
                                 static_cast<double>(bytes.size()));
  ++received_;
  // Receive path: the listener's process is woken and charged before the
  // application handler runs — the multi-tenant pain point.
  sched_.submit(l->proc, cpu,
                [l, src, port = h.dst_port, p = std::move(bytes)]() mutable {
                  l->handler(src, port, std::move(p));
                });
}

}  // namespace hyperloop::core
