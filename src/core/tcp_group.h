// Kernel-TCP replication backend ("native replication" in §6.2).
//
// Same ReplicationGroup API, implemented the way classic primary-backup
// storage systems do it (Fig 1): every hop is an RPC over the OS network
// stack. Data rides inside the message, so each hop pays send+recv CPU
// proportional to the payload, plus the replica's execution work (memcpy/
// CAS/persist) — all of it on schedulable processes that queue behind
// co-located tenants. This backend is the baseline for the MongoDB
// experiments (Fig 2, Fig 12).
#pragma once

#include <cstdint>
#include <vector>

#include "core/group.h"
#include "core/op_window.h"
#include "core/server.h"

namespace hyperloop::core {

class TcpReplicationGroup final : public ReplicationGroup {
 public:
  struct Config {
    uint64_t region_size = 4u << 20;
    uint32_t max_inflight = 64;
    /// Listening port; 0 = auto-assign a unique port (required when many
    /// groups share servers, e.g. the multi-tenant benchmarks).
    uint16_t port = 0;
    /// CPU to parse a command and run the replication logic on a replica.
    sim::Duration per_message_cpu = sim::usec(3);
  };

  TcpReplicationGroup(Server& client, std::vector<Server*> replicas,
                      Config cfg);
  ~TcpReplicationGroup() override;

  size_t group_size() const override { return replicas_.size(); }
  uint64_t region_size() const override { return cfg_.region_size; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override;
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) override;
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec_map, CasDone done) override;
  void gflush(Done done) override;
  void stop() override;
  void client_store(uint64_t offset, const void* src, uint32_t len) override;
  void client_load(uint64_t offset, void* dst, uint32_t len) const override;
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override;

  sim::Duration replica_cpu_time(size_t i) const;
  Server& replica_server(size_t i) { return *replicas_.at(i).server; }
  rdma::Addr replica_region_base(size_t i) const {
    return replicas_.at(i).data_base;
  }
  sim::ProcessId replica_pid(size_t i) const { return replicas_.at(i).pid; }
  sim::ProcessId client_pid() const { return client_pid_; }

 private:
  static constexpr size_t kMaxGroup = 8;

  struct Header {
    uint8_t type = 0;  // 0 gwrite, 1 gmemcpy, 2 gcas
    uint8_t flush = 0;
    uint16_t pad = 0;
    uint32_t seq = 0;
    uint64_t offset = 0;
    uint64_t dst = 0;
    uint64_t len = 0;
    uint64_t expected = 0;
    uint64_t desired = 0;
    uint64_t exec_mask = 0;
    uint64_t result[kMaxGroup] = {};
  };

  struct Replica {
    Server* server = nullptr;
    rdma::Addr data_base = 0;
    sim::ProcessId pid = 0;
  };

  void on_replica_message(size_t i, std::vector<uint8_t> msg);
  void forward(size_t i, std::vector<uint8_t> msg);
  void on_client_ack(std::vector<uint8_t> msg);
  void submit(const Header& hdr, Done done, CasDone cas_done);
  void issue(Header hdr, Done done, CasDone cas_done);
  auto issuer() {
    return [this](const Header& hdr, Done done, CasDone cas_done) {
      issue(hdr, std::move(done), std::move(cas_done));
    };
  }

  Server& client_;
  std::vector<Replica> replicas_;
  Config cfg_;
  sim::ProcessId client_pid_;
  rdma::Addr client_region_ = 0;

  OpWindow<Header> window_;  ///< seq is assigned when a command is issued
};

}  // namespace hyperloop::core
