#include "core/tcp_stack.h"

#include <cassert>

namespace hyperloop::core {
namespace {

/// CPU to send one message: syscall + copy + protocol.
constexpr sim::Duration kSendCpuBase = sim::usec(4);
constexpr double kSendCpuNsPerByte = 0.25;
/// CPU to deliver one message: interrupt + protocol + copy + wakeup.
constexpr sim::Duration kRecvCpuBase = sim::usec(6);
constexpr double kRecvCpuNsPerByte = 0.25;

sim::Duration send_cpu(size_t bytes) {
  return kSendCpuBase + static_cast<sim::Duration>(
                            kSendCpuNsPerByte * static_cast<double>(bytes));
}

}  // namespace

TcpStack::TcpStack(rdma::Network& net, rdma::NicId nic_id,
                   sim::CpuScheduler& sched)
    : net_(net), nic_id_(nic_id), sched_(sched) {
  net_.set_datagram_handler(
      nic_id_, [this](rdma::NicId src, uint16_t port, rdma::PayloadBuf bytes) {
        on_datagram(src, port, std::move(bytes));
      });
}

void TcpStack::listen(uint16_t port, sim::ProcessId proc, Handler handler) {
  listeners_[port] = Listener{proc, std::move(handler)};
}

void TcpStack::send(sim::ProcessId sender_proc, rdma::NicId dst,
                    uint16_t port, rdma::PayloadBuf data) {
  // Costed before the closure below takes the buffer.
  const sim::Duration cpu = send_cpu(data.size());
  // The sender's process must get a core to push the message through the
  // socket layer; only then do bytes reach the wire.
  sched_.submit(sender_proc, cpu,
                [this, dst, port, d = std::move(data)]() mutable {
                  ++sent_;
                  net_.transmit_datagram(nic_id_, dst, port, std::move(d));
                });
}

void TcpStack::send_many(sim::ProcessId sender_proc,
                         std::vector<Dgram> msgs) {
  if (msgs.empty()) return;
  sim::Duration cpu = 0;
  for (const Dgram& m : msgs) cpu += send_cpu(m.data.size());
  // Same total CPU as per-message send() — the coalescing saves scheduler
  // events, not modeled work — so baseline cost comparisons are unchanged.
  sched_.submit(sender_proc, cpu, [this, ms = std::move(msgs)]() mutable {
    for (Dgram& m : ms) {
      ++sent_;
      net_.transmit_datagram(nic_id_, m.dst, m.port, std::move(m.data));
    }
  });
}

void TcpStack::on_datagram(rdma::NicId src, uint16_t port,
                           rdma::PayloadBuf bytes) {
  auto it = listeners_.find(port);
  assert(it != listeners_.end() && "datagram for un-bound port");
  // Listener nodes are map-stable and never unbound, so the deferred
  // delivery captures a pointer instead of copying the std::function (a
  // per-message heap allocation the baseline shouldn't pay).
  const Listener* l = &it->second;
  const auto cpu =
      kRecvCpuBase +
      static_cast<sim::Duration>(kRecvCpuNsPerByte *
                                 static_cast<double>(bytes.size()));
  // Receive path: the listener's process is woken and charged before the
  // application handler runs — the multi-tenant pain point.
  sched_.submit(l->proc, cpu,
                [l, src, port, p = std::move(bytes)]() mutable {
                  l->handler(src, port, std::move(p));
                });
}

}  // namespace hyperloop::core
