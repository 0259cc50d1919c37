#include "rdma/network.h"

#include <cassert>
#include <utility>

namespace hyperloop::rdma {

NicId Network::attach(sim::SmallFn<void(Packet)> on_packet) {
  const NicId id = static_cast<NicId>(endpoints_.size());
  endpoints_.push_back(Endpoint{std::move(on_packet), {}, 0});
  return id;
}

void Network::set_datagram_handler(NicId id, DatagramHandler fn) {
  assert(id < endpoints_.size());
  endpoints_[id].on_datagram = std::move(fn);
}

sim::Duration Network::serialize_time(size_t bytes) const {
  const double ns = static_cast<double>(bytes) * 8.0 / cfg_.bandwidth_bps * 1e9;
  return static_cast<sim::Duration>(ns) + 1;  // never zero: keeps FIFO strict
}

sim::Time Network::schedule_tx(NicId src, size_t bytes) {
  assert(src < endpoints_.size());
  Endpoint& ep = endpoints_[src];
  const sim::Time start = std::max(loop_.now(), ep.tx_busy_until);
  const sim::Time tx_end = start + serialize_time(bytes);
  ep.tx_busy_until = tx_end;
  return tx_end + cfg_.propagation_delay;
}

template <typename P>
void Network::transmit_impl(P&& pkt) {
  assert(pkt.dst_nic < endpoints_.size());
  const sim::Time arrival = schedule_tx(pkt.src_nic, pkt.wire_bytes());
  if (cfg_.loss_probability > 0 && loss_rng_.chance(cfg_.loss_probability)) {
    ++packets_dropped_;
    return;  // eaten by the fabric; RC retransmission recovers
  }
  // std::forward: an rvalue argument is moved into the closure, a
  // retransmit/replay lvalue is copy-constructed straight into it (the
  // caller's window/cache slot keeps the original).
  auto deliver = [this, p = std::forward<P>(pkt)]() mutable {
    ++packets_delivered_;
    endpoints_[p.dst_nic].on_packet(std::move(p));
  };
  // Fabric delivery is scheduled once per packet per hop; keep the closure
  // within the event loop's inline storage so it never heap-allocates.
  static_assert(sizeof(deliver) <= sim::EventLoop::kInlineCallbackBytes,
                "packet delivery closure must stay inline in the event loop");
  loop_.schedule_at(arrival, std::move(deliver));
}

void Network::transmit(Packet&& pkt) { transmit_impl(std::move(pkt)); }

void Network::transmit(const Packet& pkt) { transmit_impl(pkt); }

void Network::transmit_datagram(NicId src, NicId dst, uint16_t port,
                                PayloadBuf bytes) {
  assert(dst < endpoints_.size());
  // Port header (4 bytes) plus frame (64 bytes).
  const sim::Time arrival = schedule_tx(src, bytes.size() + 68);
  auto deliver = [this, src, dst, port, b = std::move(bytes)]() mutable {
    assert(endpoints_[dst].on_datagram && "no datagram handler registered");
    endpoints_[dst].on_datagram(src, port, std::move(b));
  };
  static_assert(sizeof(deliver) <= sim::EventLoop::kInlineCallbackBytes,
                "datagram delivery closure must stay inline in the event loop");
  loop_.schedule_at(arrival, std::move(deliver));
}

}  // namespace hyperloop::rdma
