// The shared base of the four single-chain replication backends.
//
// HyperLoopGroup, NaiveRdmaGroup, FanoutGroup and TcpReplicationGroup
// implement one contract (paper Table 1, group.h) and differ only in how
// an op travels the chain. BackendGroup holds what they all do the same
// way:
//
//   - allocation: the client's copy of the region, then each replica's
//     NVM region with its memory region (remote read, write and atomic)
//     on the group's NIC;
//   - the NIC plumbing: the NIC of each server that carries the group's
//     QPs, resolved once, and make_cq / make_qp / make_loopback_qp, which
//     create through it and record every handle;
//   - teardown: stop() drops the backend's pending ops uncalled, then
//     destroys every recorded QP before any recorded CQ;
//   - gwrite, gmemcpy and gcas with their bounds checks. Each packs its
//     parameters into a GroupOp and hands it to the backend's submit().
//     gMEMCPY makes the client's own copy at the call (group.h);
//   - gflush, a flushed 0-byte gWRITE;
//   - the client-copy and replica accessors that tests, readers, benches
//     and examples use, and the replicas' RNR stall count.
//
// A backend implements only its datapath: its set-up, submit(), and
// abort_pending(), which drops its own credit windows. The two
// CPU-forwarded baselines (Naïve-RDMA, TCP) also share ForwardedCmd, the
// command each hop carries and the replica-side apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/group.h"
#include "core/server.h"
#include "rdma/memory.h"
#include "rdma/nic.h"

namespace hyperloop::core {

/// One primitive call by value: what a backend needs to issue it, and
/// what its OpWindow keeps while the op is parked for a credit.
struct GroupOp {
  enum class Kind : uint8_t { kWrite = 0, kMemcpy = 1, kCas = 2 };

  Kind kind = Kind::kWrite;
  bool flush = false;
  uint32_t len = 0;
  uint64_t offset = 0;  ///< gWRITE / gCAS target, gMEMCPY source
  uint64_t dst = 0;     ///< gMEMCPY destination
  uint64_t expected = 0;
  uint64_t desired = 0;
  ExecMap exec;
};

/// The command the CPU-forwarded baselines carry down the chain and back
/// to the client as the ACK: NaiveRdmaGroup in an RDMA SEND, and
/// TcpReplicationGroup as the header of a TCP message whose gWRITE bytes
/// follow it. Every hop carries the same 120 bytes.
struct ForwardedCmd {
  static constexpr size_t kMaxGroup = 8;

  uint8_t type = 0;  ///< GroupOp::Kind
  uint8_t flush = 0;
  uint16_t pad = 0;
  uint32_t seq = 0;
  uint64_t offset = 0;
  uint64_t dst = 0;
  uint64_t len = 0;
  uint64_t expected = 0;
  uint64_t desired = 0;
  uint64_t exec_mask = 0;
  uint64_t result[kMaxGroup] = {};  ///< gCAS: old value at each replica

  static ForwardedCmd from(const GroupOp& op);

  GroupOp::Kind kind() const { return static_cast<GroupOp::Kind>(type); }

  /// Executes the command at chain position `i`, on `replica`'s region at
  /// `base`. A gWRITE's bytes are already in place. gMEMCPY copies; gCAS
  /// swaps if bit i of the execute map is set and records the old value
  /// in result[i]. A flushed command is a durability barrier: it persists
  /// every dirty byte of the replica's NVM, so the unflushed ops applied
  /// before it become durable too (group.h).
  void apply(Server& replica, rdma::Addr base, size_t i);
};

static_assert(sizeof(ForwardedCmd) == 120,
              "ForwardedCmd is the on-the-wire command of both baselines");

class BackendGroup : public ReplicationGroup {
 public:
  size_t group_size() const final { return replicas_.size(); }
  uint64_t region_size() const final { return region_size_; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) final;
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) final;
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec_map, CasDone done) final;
  void gflush(Done done) override;
  /// Drops the pending ops (abort_pending), then destroys every QP the
  /// group made before any of its CQs: destroying a QP unlinks it from a
  /// CQ's WAIT list, and destroy_cq asserts that no waiter is left.
  void stop() final;
  void client_store(uint64_t offset, const void* src, uint32_t len) final;
  void client_load(uint64_t offset, void* dst, uint32_t len) const final;
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const final;

  Server& replica_server(size_t i) { return *replicas_.at(i).server; }
  /// Replica i's region base (tests pair it with the server's NvmDevice
  /// to check durability).
  rdma::Addr replica_region_base(size_t i) const {
    return replicas_.at(i).data_base;
  }
  /// rkey of replica i's region (for one-sided reader QPs).
  uint32_t replica_data_rkey(size_t i) const {
    return replicas_.at(i).data_mr.rkey;
  }
  /// CPU replica i has spent on this group: the Naïve or TCP handler, or
  /// the HyperLoop or fan-out ring refill. 0 when it runs no process.
  sim::Duration replica_cpu_time(size_t i) const;
  /// Receiver-not-ready stalls on the replicas' NICs. The offloaded
  /// backends keep it at 0 while their refill stays ahead of the client
  /// (asserted by tests, reported by benches).
  uint64_t total_rnr_stalls() const;

 protected:
  static constexpr sim::ProcessId kNoProcess = UINT32_MAX;

  struct Replica {
    Server* server = nullptr;
    rdma::Nic* nic = nullptr;  ///< carries the group's QPs on this server
    rdma::Addr data_base = 0;
    rdma::MemoryRegion data_mr{};
    sim::ProcessId pid = kNoProcess;  ///< replica_cpu_time()'s process
  };

  /// Allocates the client's region, then each replica's region and its
  /// memory region on NIC `nic_index`.
  BackendGroup(Server& client, std::vector<Server*> replicas,
               uint64_t region_size, uint32_t nic_index);

  /// Issues `op`, or parks it for a credit. `cas_done` is set for gCAS,
  /// `done` for the others.
  virtual void submit(const GroupOp& op, Done done, CasDone cas_done) = 0;
  /// Drops every op in flight or parked for a credit without running its
  /// callback, with whatever the datapath holds for them, and returns how
  /// many ops it dropped. stop() calls it once.
  virtual uint64_t abort_pending() = 0;

  /// Create through `nic` (the client's or a replica's NIC of this group)
  /// and record the handle, which stop() destroys.
  rdma::CompletionQueue* make_cq(rdma::Nic& nic, size_t capacity = 4096);
  rdma::QueuePair* make_qp(rdma::Nic& nic, rdma::CompletionQueue* send_cq,
                           rdma::CompletionQueue* recv_cq, uint32_t sq_slots);
  rdma::QueuePair* make_loopback_qp(rdma::Nic& nic,
                                    rdma::CompletionQueue* send_cq,
                                    uint32_t sq_slots);

  Server& client_;
  rdma::Nic& client_nic_;  ///< carries the group's QPs on the client
  std::vector<Replica> replicas_;
  rdma::Addr client_region_ = 0;

 private:
  uint64_t region_size_ = 0;
  std::vector<rdma::QueuePair*> qps_;
  std::vector<std::pair<rdma::Nic*, rdma::CompletionQueue*>> cqs_;
};

}  // namespace hyperloop::core
