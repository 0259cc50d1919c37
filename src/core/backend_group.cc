#include "core/backend_group.h"

#include <cassert>
#include <utility>

namespace hyperloop::core {

ForwardedCmd ForwardedCmd::from(const GroupOp& op) {
  ForwardedCmd cmd;
  cmd.type = static_cast<uint8_t>(op.kind);
  cmd.flush = op.flush ? 1 : 0;
  cmd.offset = op.offset;
  cmd.dst = op.dst;
  cmd.len = op.len;
  cmd.expected = op.expected;
  cmd.desired = op.desired;
  cmd.exec_mask = op.exec.bits;
  return cmd;
}

void ForwardedCmd::apply(Server& replica, rdma::Addr base, size_t i) {
  rdma::HostMemory& mem = replica.mem();
  switch (kind()) {
    case GroupOp::Kind::kWrite:
      break;
    case GroupOp::Kind::kMemcpy:
      mem.copy(base + dst, base + offset, len);
      break;
    case GroupOp::Kind::kCas:
      if ((exec_mask >> i) & 1u) {
        uint64_t old = 0;
        mem.read(base + offset, &old, sizeof(old));
        if (old == expected) mem.write(base + offset, &desired, sizeof(desired));
        result[i] = old;
      }
      break;
  }
  if (flush != 0) replica.nvm().persist_all();
}

BackendGroup::BackendGroup(Server& client, std::vector<Server*> replicas,
                           uint64_t region_size, uint32_t nic_index)
    : client_(client),
      client_nic_(client.nic(nic_index)),
      region_size_(region_size) {
  assert(!replicas.empty() && replicas.size() <= ExecMap::kMaxReplicas);
  client_region_ = client_.nvm().alloc(region_size_, 4096);
  replicas_.resize(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    Replica& r = replicas_[i];
    r.server = replicas[i];
    r.nic = &r.server->nic(nic_index);
    r.data_base = r.server->nvm().alloc(region_size_, 4096);
    r.data_mr = r.nic->register_mr(
        r.data_base, region_size_,
        rdma::kRemoteRead | rdma::kRemoteWrite | rdma::kRemoteAtomic |
            rdma::kLocalWrite);
  }
}

void BackendGroup::stop() {
  if (stopped_) return;
  stopped_ = true;
  aborted_ops_ += abort_pending();
  for (rdma::QueuePair* qp : qps_) qp->nic->destroy_qp(qp);
  for (auto [nic, cq] : cqs_) nic->destroy_cq(cq);
  qps_.clear();
  cqs_.clear();
}

rdma::CompletionQueue* BackendGroup::make_cq(rdma::Nic& nic,
                                             size_t capacity) {
  rdma::CompletionQueue* cq = nic.create_cq(capacity);
  cqs_.emplace_back(&nic, cq);
  return cq;
}

rdma::QueuePair* BackendGroup::make_qp(rdma::Nic& nic,
                                       rdma::CompletionQueue* send_cq,
                                       rdma::CompletionQueue* recv_cq,
                                       uint32_t sq_slots) {
  qps_.push_back(nic.create_qp(send_cq, recv_cq, sq_slots));
  return qps_.back();
}

rdma::QueuePair* BackendGroup::make_loopback_qp(rdma::Nic& nic,
                                                rdma::CompletionQueue* send_cq,
                                                uint32_t sq_slots) {
  qps_.push_back(nic.create_loopback_qp(send_cq, sq_slots));
  return qps_.back();
}

void BackendGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                          Done done) {
  assert(!stopped_ && "primitive on a stopped group");
  assert(offset + len <= region_size_);
  GroupOp op;
  op.flush = flush;
  op.len = len;
  op.offset = offset;
  submit(op, std::move(done), CasDone{});
}

void BackendGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                           uint32_t len, bool flush, Done done) {
  assert(!stopped_ && "primitive on a stopped group");
  assert(src_offset + len <= region_size_);
  assert(dst_offset + len <= region_size_);
  // The client's copy (the head of the chain) copies at the call, not at
  // issue: a parked op must not leave it stale (group.h).
  client_.mem().copy(client_region_ + dst_offset, client_region_ + src_offset,
                     len);
  client_.nvm().persist(client_region_ + dst_offset, len);
  GroupOp op;
  op.kind = GroupOp::Kind::kMemcpy;
  op.flush = flush;
  op.len = len;
  op.offset = src_offset;
  op.dst = dst_offset;
  submit(op, std::move(done), CasDone{});
}

void BackendGroup::gcas(uint64_t offset, uint64_t expected, uint64_t desired,
                        ExecMap exec_map, CasDone done) {
  assert(!stopped_ && "primitive on a stopped group");
  assert(offset + 8 <= region_size_);
  GroupOp op;
  op.kind = GroupOp::Kind::kCas;
  op.offset = offset;
  op.expected = expected;
  op.desired = desired;
  op.exec = exec_map;
  submit(op, Done{}, std::move(done));
}

void BackendGroup::gflush(Done done) {
  gwrite(0, 0, /*flush=*/true, std::move(done));
}

void BackendGroup::client_store(uint64_t offset, const void* src,
                                uint32_t len) {
  assert(offset + len <= region_size_);
  client_.mem().write(client_region_ + offset, src, len);
  client_.nvm().persist(client_region_ + offset, len);
}

void BackendGroup::client_load(uint64_t offset, void* dst,
                               uint32_t len) const {
  client_.mem().read(client_region_ + offset, dst, len);
}

void BackendGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                uint32_t len) const {
  const Replica& r = replicas_.at(i);
  r.server->mem().read(r.data_base + offset, dst, len);
}

sim::Duration BackendGroup::replica_cpu_time(size_t i) const {
  const Replica& r = replicas_.at(i);
  return r.pid == kNoProcess ? 0 : r.server->sched().stats(r.pid).cpu_time;
}

uint64_t BackendGroup::total_rnr_stalls() const {
  uint64_t n = 0;
  for (const Replica& r : replicas_) n += r.nic->counters().rnr_stalls;
  return n;
}

}  // namespace hyperloop::core
