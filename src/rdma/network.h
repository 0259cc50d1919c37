// The simulated fabric: a full-mesh of point-to-point links between NICs.
//
// Model: each NIC has one full-duplex port. An egress transmission
// serializes on the sender's port at `bandwidth` and then propagates for
// `propagation_delay`. Because every packet from a given NIC serializes on
// the same port and propagation is constant, delivery is FIFO per source —
// which provides the in-order guarantees HyperLoop relies on (WRITE data
// lands before the SEND metadata that references it).
//
// The same fabric also carries "datagrams" for the kernel-TCP baseline
// (src/core/tcp_stack.*): opaque byte blobs, each addressed to a port and
// delivered to a per-NIC handler.
#pragma once

#include <cstdint>
#include <vector>

#include "rdma/packet.h"
#include "rdma/payload_buf.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/small_fn.h"

namespace hyperloop::rdma {

class Network {
 public:
  struct Config {
    /// Link bandwidth in bits per second (paper testbed: 56 Gbps).
    double bandwidth_bps = 56e9;
    /// One-way propagation + switching delay.
    sim::Duration propagation_delay = sim::nsec(900);
    /// Probability that a packet is dropped in flight (fault injection;
    /// the NICs' RC transport recovers via PSN-ordered retransmission).
    double loss_probability = 0.0;
  };

  Network(sim::EventLoop& loop, Config cfg) : loop_(loop), cfg_(cfg) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Receives a datagram: (source NIC, destination port, bytes).
  using DatagramHandler = sim::SmallFn<void(NicId, uint16_t, PayloadBuf)>;

  /// Attaches an endpoint whose `on_packet` receives RDMA packets.
  /// Returns the NicId. Handlers use SmallFn inline storage: dispatching
  /// a packet to an endpoint is two indirect calls and never allocates.
  NicId attach(sim::SmallFn<void(Packet)> on_packet);

  /// Installs/replaces the datagram handler for an endpoint (used by the
  /// kernel-TCP baseline, which shares the fabric with RDMA traffic).
  void set_datagram_handler(NicId id, DatagramHandler fn);

  /// Transmits an RDMA packet (serializes on the source port). The packet
  /// is moved end to end: into the delivery closure and out to the
  /// endpoint handler — no Packet copy anywhere on the delivery path.
  void transmit(Packet&& pkt);

  /// Retransmit/replay flavor: the caller keeps its copy (retransmit
  /// window slot, duplicate-response cache). The packet is copied exactly
  /// once, directly into the delivery closure (payload bytes are shared
  /// via PayloadBuf refcounting, never duplicated). A packet dropped by
  /// loss injection is not copied at all.
  void transmit(const Packet& pkt);

  /// Transmits a datagram of `bytes.size()` bytes from src to `port` on
  /// dst. On the wire it also carries a 4-byte port header and a frame's
  /// 64 bytes; the bytes themselves are moved, never copied.
  void transmit_datagram(NicId src, NicId dst, uint16_t port,
                         PayloadBuf bytes);

  /// Wire time for a message of `bytes` bytes at link bandwidth.
  sim::Duration serialize_time(size_t bytes) const;

  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  const Config& config() const { return cfg_; }

 private:
  struct Endpoint {
    sim::SmallFn<void(Packet)> on_packet;
    DatagramHandler on_datagram;
    sim::Time tx_busy_until = 0;
  };

  /// Reserves the source port and returns the delivery time.
  sim::Time schedule_tx(NicId src, size_t bytes);

  /// Shared body for both transmit() overloads: P is Packet&& (move into
  /// the delivery closure) or const Packet& (single copy into it).
  template <typename P>
  void transmit_impl(P&& pkt);

  sim::EventLoop& loop_;
  Config cfg_;
  std::vector<Endpoint> endpoints_;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
  sim::Rng loss_rng_{0x10552};
};

}  // namespace hyperloop::rdma
