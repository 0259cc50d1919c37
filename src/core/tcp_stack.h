// Kernel-TCP message layer (the "native replication" baseline).
//
// Models the cost structure the paper's §2.2 measurements attribute to the
// OS path: every send and receive charges CPU (syscalls, copies, interrupt
// handling, protocol processing) to a *schedulable process*, so under
// multi-tenant load the network path itself queues behind busy cores —
// unlike RDMA, where the NIC does the work. Bytes then ride the same
// simulated fabric as RDMA packets.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "rdma/network.h"
#include "rdma/payload_buf.h"
#include "sim/cpu_scheduler.h"

namespace hyperloop::core {

class TcpStack {
 public:
  /// Handler receives (source NIC, destination port, message bytes).
  /// Messages are pooled PayloadBufs: a handler may keep, forward or drop
  /// one, and the last reference returns its block to the pool.
  using Handler = std::function<void(rdma::NicId, uint16_t, rdma::PayloadBuf)>;

  TcpStack(rdma::Network& net, rdma::NicId nic_id, sim::CpuScheduler& sched);

  /// Binds `port` to `handler`, whose CPU time is charged to `proc`.
  void listen(uint16_t port, sim::ProcessId proc, Handler handler);

  /// Sends `data` to `port` on the server whose NIC is `dst`. The send
  /// path charges CPU to `sender_proc` before the bytes hit the wire.
  void send(sim::ProcessId sender_proc, rdma::NicId dst, uint16_t port,
            rdma::PayloadBuf data);

  /// One outbound message of a send_many batch.
  struct Dgram {
    rdma::NicId dst;
    uint16_t port;
    rdma::PayloadBuf data;
  };

  /// Sends a batch of messages with a single scheduler wakeup
  /// (sendmmsg-style): the sender's process is charged the summed
  /// per-message CPU once, then every message hits the wire in order.
  /// Periodic fan-out paths (heartbeat sweeps) use this so event-loop
  /// load stays one event per period instead of one per destination.
  void send_many(sim::ProcessId sender_proc, std::vector<Dgram> msgs);

  uint64_t messages_sent() const { return sent_; }

 private:
  struct Listener {
    sim::ProcessId proc;
    Handler handler;
  };

  void on_datagram(rdma::NicId src, uint16_t port, rdma::PayloadBuf bytes);

  rdma::Network& net_;
  rdma::NicId nic_id_;
  sim::CpuScheduler& sched_;
  std::unordered_map<uint16_t, Listener> listeners_;
  uint64_t sent_ = 0;
};

}  // namespace hyperloop::core
