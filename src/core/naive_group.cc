#include "core/naive_group.h"

#include <cassert>
#include <cstring>

#include "core/cpu_costs.h"

namespace hyperloop::core {

using rdma::Addr;
using rdma::RecvWqe;
using rdma::Sge;
using rdma::Wqe;

namespace {

/// CPU per replica handler wakeup (sched-in, CQ poll-loop setup).
constexpr sim::Duration kHandlerBase = sim::usec(1);
/// kSharedPolling: length of each spin slice through the run queue.
constexpr sim::Duration kPollSlice = sim::usec(200);
/// CPU to parse one command and post the forwarding WRs.
constexpr sim::Duration kPerMessage = sim::usec(1) + sim::nsec(500);

}  // namespace

NaiveRdmaGroup::NaiveRdmaGroup(Server& client, std::vector<Server*> replicas,
                               Config cfg)
    : client_(client),
      cfg_(cfg),
      window_(cfg.max_inflight, cfg.max_inflight * 2) {
  assert(!replicas.empty() && replicas.size() <= kMaxGroup);
  assert(cfg_.max_inflight * 2 <= cfg_.recv_slots);
  replicas_.resize(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    replicas_[i].server = replicas[i];
  }

  client_region_ = client_.nvm().alloc(cfg_.region_size, 4096);
  client_cmd_ring_ =
      client_.mem().alloc(sizeof(Cmd) * cfg_.max_inflight * 2, 64);
  client_ack_ring_ =
      client_.mem().alloc(sizeof(Cmd) * cfg_.max_inflight * 2, 64);
  const auto ack_mr = client_.nic().register_mr(
      client_ack_ring_, sizeof(Cmd) * cfg_.max_inflight * 2,
      rdma::kLocalWrite);
  client_ack_lkey_ = ack_mr.lkey;

  cq_down_ = client_.nic().create_cq();
  cq_up_ = client_.nic().create_cq();
  qp_down_ =
      client_.nic().create_qp(cq_down_, nullptr, cfg_.max_inflight * 4 + 16);
  qp_up_ = client_.nic().create_qp(nullptr, cq_up_, 16);

  for (size_t i = 0; i < replicas_.size(); ++i) setup_replica(i);
  wire_chain();

  // Client ACK receive ring.
  for (uint32_t s = 0; s < cfg_.max_inflight * 2; ++s) {
    RecvWqe r;
    r.wr_id = s;
    r.sges.push_back(Sge{client_ack_ring_ + uint64_t{s} * sizeof(Cmd),
                         sizeof(Cmd), client_ack_lkey_});
    client_.nic().post_recv(qp_up_, std::move(r));
  }
  cq_up_->set_notify([this] { on_client_ack(); });
  cq_up_->arm_notify();
}

NaiveRdmaGroup::~NaiveRdmaGroup() { stop(); }

void NaiveRdmaGroup::stop() {
  if (stopped_) return;
  stopped_ = true;

  // Drop (never invoke) pending completion callbacks and queued commands.
  aborted_ops_ += window_.abort_all();

  // Release NIC resources; QPs before the CQs they reference.
  for (Replica& r : replicas_) {
    rdma::Nic& nic = r.server->nic();
    if (r.qp_prev) nic.destroy_qp(r.qp_prev);
    if (r.qp_next) nic.destroy_qp(r.qp_next);
    if (r.cq_recv) nic.destroy_cq(r.cq_recv);
    if (r.cq_send) nic.destroy_cq(r.cq_send);
    r.qp_prev = r.qp_next = nullptr;
    r.cq_recv = r.cq_send = nullptr;
  }
  rdma::Nic& nic = client_.nic();
  if (qp_down_) nic.destroy_qp(qp_down_);
  if (qp_up_) nic.destroy_qp(qp_up_);
  if (cq_down_) nic.destroy_cq(cq_down_);
  if (cq_up_) nic.destroy_cq(cq_up_);
  qp_down_ = qp_up_ = nullptr;
  cq_down_ = cq_up_ = nullptr;
}

void NaiveRdmaGroup::setup_replica(size_t i) {
  Replica& r = replicas_[i];
  rdma::Nic& nic = r.server->nic();
  rdma::HostMemory& mem = r.server->mem();

  r.data_base = r.server->nvm().alloc(cfg_.region_size, 4096);
  r.data_mr = nic.register_mr(
      r.data_base, cfg_.region_size,
      rdma::kRemoteRead | rdma::kRemoteWrite | rdma::kRemoteAtomic |
          rdma::kLocalWrite);

  r.cmd_ring = mem.alloc(sizeof(Cmd) * cfg_.recv_slots, 64);
  const auto cmd_mr = nic.register_mr(
      r.cmd_ring, sizeof(Cmd) * cfg_.recv_slots, rdma::kLocalWrite);
  r.cmd_lkey = cmd_mr.lkey;

  r.cq_recv = nic.create_cq();
  r.cq_send = nic.create_cq();
  r.qp_prev = nic.create_qp(nullptr, r.cq_recv, 16);
  r.qp_next = nic.create_qp(r.cq_send, nullptr, cfg_.recv_slots * 2 + 16);

  for (uint32_t s = 0; s < cfg_.recv_slots; ++s) post_recv_slot(r, s);

  r.pid = r.server->sched().create_process(r.server->name() + "-naive-repl");
  if (cfg_.mode == Mode::kPolling) {
    const bool ok = r.server->sched().pin_core(r.pid);
    assert(ok && "no free core to pin for polling replica");
    (void)ok;
  }
  if (cfg_.mode == Mode::kSharedPolling) {
    shared_poll_loop(i);
  } else {
    r.cq_recv->set_notify([this, i] { on_replica_notify(i); });
    r.cq_recv->arm_notify();
  }
}

void NaiveRdmaGroup::shared_poll_loop(size_t i) {
  // The poll loop spins in slices through the shared run queue; messages
  // that arrived during the previous rotation are handled at the start of
  // the next slice (the handling chain re-enters the poll loop when the
  // CQ is drained).
  Replica& r = replicas_[i];
  r.server->sched().submit(
      r.pid, kPollSlice,
      [this, i] {
        if (stopped_) return;
        Replica& rr = replicas_[i];
        if (rr.cq_recv->available() > 0) {
          // Handle pending messages (replica_drain chains per message and
          // falls back into the poll loop via arm-notify... for shared
          // polling we re-enter the loop directly instead).
          replica_drain(i);
        } else {
          shared_poll_loop(i);
        }
      },
      /*fresh_wakeup=*/false);
}

void NaiveRdmaGroup::wire_chain() {
  client_.nic().connect(qp_down_, replicas_.front().server->nic().id(),
                        replicas_.front().qp_prev->qpn);
  replicas_.front().server->nic().connect(
      replicas_.front().qp_prev, client_.nic().id(), qp_down_->qpn);
  for (size_t i = 0; i + 1 < replicas_.size(); ++i) {
    replicas_[i].server->nic().connect(
        replicas_[i].qp_next, replicas_[i + 1].server->nic().id(),
        replicas_[i + 1].qp_prev->qpn);
    replicas_[i + 1].server->nic().connect(
        replicas_[i + 1].qp_prev, replicas_[i].server->nic().id(),
        replicas_[i].qp_next->qpn);
  }
  replicas_.back().server->nic().connect(
      replicas_.back().qp_next, client_.nic().id(), qp_up_->qpn);
  client_.nic().connect(qp_up_, replicas_.back().server->nic().id(),
                        replicas_.back().qp_next->qpn);
}

void NaiveRdmaGroup::post_recv_slot(Replica& r, uint64_t slot) {
  RecvWqe recv;
  recv.wr_id = slot;
  recv.sges.push_back(Sge{r.cmd_ring + slot * sizeof(Cmd), sizeof(Cmd),
                          r.cmd_lkey});
  r.server->nic().post_recv(r.qp_prev, std::move(recv));
}

// ----------------------------------------------------------- replica path --

void NaiveRdmaGroup::on_replica_notify(size_t i) {
  Replica& r = replicas_[i];
  // The replica process is woken (event mode: run-queue wait + wakeup
  // overhead; polling mode: pinned core, ~poll interval) and charged the
  // handler + parse cost before it can touch the message.
  r.server->sched().submit(r.pid, kHandlerBase + kPerMessage,
                           [this, i] { replica_drain(i); });
}

sim::Duration NaiveRdmaGroup::message_cost(const Cmd& cmd) const {
  sim::Duration extra = 0;
  if (cmd.type == 1) extra += cpu_copy_cost(cmd.len);  // gmemcpy on the CPU
  if (cmd.type == 2) extra += sim::nsec(200);          // CAS
  if (cmd.flush != 0) extra += cpu_persist_cost(cmd.len);
  return extra;
}

void NaiveRdmaGroup::replica_drain(size_t i) {
  if (stopped_) return;
  Replica& r = replicas_[i];
  rdma::Cqe cqe;
  if (!r.cq_recv->poll(&cqe)) {
    if (cfg_.mode == Mode::kSharedPolling) {
      shared_poll_loop(i);
    } else {
      r.cq_recv->arm_notify();
    }
    return;
  }
  const uint64_t slot = cqe.wr_id;
  Cmd cmd = r.server->mem().read_obj<Cmd>(r.cmd_ring + slot * sizeof(Cmd));

  auto finish = [this, i, slot, cmd] {
    if (stopped_) return;
    Replica& rr = replicas_[i];
    execute_and_forward(i, cmd);
    post_recv_slot(rr, slot % cfg_.recv_slots);
    if (rr.cq_recv->available() > 0) {
      // More messages pending: keep the process running (no fresh wakeup,
      // but it re-queues for a core, i.e. can be preempted).
      rr.server->sched().submit(rr.pid, kPerMessage,
                                [this, i] { replica_drain(i); },
                                /*fresh_wakeup=*/false);
    } else if (cfg_.mode == Mode::kSharedPolling) {
      shared_poll_loop(i);
    } else {
      rr.cq_recv->arm_notify();
      if (rr.cq_recv->available() > 0) on_replica_notify(i);
    }
  };

  const sim::Duration extra = message_cost(cmd);
  if (extra > 0) {
    r.server->sched().submit(r.pid, extra, std::move(finish),
                             /*fresh_wakeup=*/false);
  } else {
    finish();
  }
}

void NaiveRdmaGroup::execute_and_forward(size_t i, Cmd cmd) {
  Replica& r = replicas_[i];
  rdma::HostMemory& mem = r.server->mem();

  switch (cmd.type) {
    case 0: {  // gwrite: upstream already DMA'd the data into our region
      if (cmd.flush != 0) {
        r.server->nvm().persist(r.data_base + cmd.offset, cmd.len);
      }
      break;
    }
    case 1: {  // gmemcpy: CPU copies log -> data
      mem.copy(r.data_base + cmd.dst, r.data_base + cmd.offset, cmd.len);
      if (cmd.flush != 0) {
        r.server->nvm().persist(r.data_base + cmd.dst, cmd.len);
      }
      break;
    }
    case 2: {  // gcas
      if ((cmd.exec_mask >> i) & 1u) {
        uint64_t old = 0;
        mem.read(r.data_base + cmd.offset, &old, sizeof(old));
        if (old == cmd.expected) {
          mem.write(r.data_base + cmd.offset, &cmd.desired,
                    sizeof(cmd.desired));
        }
        cmd.result[i] = old;
      }
      break;
    }
    default:
      assert(false && "unknown command");
  }

  // Stage the (possibly updated) command back into the slot buffer and
  // forward it. For gwrite, forward the data first.
  const uint64_t slot_addr =
      r.cmd_ring + (cmd.seq % cfg_.recv_slots) * sizeof(Cmd);
  mem.write_obj(slot_addr, cmd);

  if (i + 1 < replicas_.size()) {
    const Replica& next = replicas_[i + 1];
    if (cmd.type == 0 && cmd.len > 0) {
      Wqe data = rdma::make_write(r.data_base + cmd.offset, 0,
                                  next.data_base + cmd.offset,
                                  next.data_mr.rkey,
                                  static_cast<uint32_t>(cmd.len));
      // Forwarding bytes the upstream hop already landed here: borrow.
      data.d.flags |= rdma::kWqeFlagZeroCopy;
      r.server->nic().post_send(r.qp_next, data);
    }
    r.server->nic().post_send(
        r.qp_next, rdma::make_send(slot_addr, 0, sizeof(Cmd)));
  } else {
    // Tail of the chain: ACK the client.
    r.server->nic().post_send(
        r.qp_next, rdma::make_send(slot_addr, 0, sizeof(Cmd)));
  }
}

// ------------------------------------------------------------ client path --

void NaiveRdmaGroup::on_client_ack() {
  rdma::Cqe cqe;
  while (cq_up_->poll(&cqe)) {
    const uint64_t slot = cqe.wr_id;
    Cmd cmd = client_.mem().read_obj<Cmd>(client_ack_ring_ +
                                          slot * sizeof(Cmd));
    auto* ps = window_.ack(cmd.seq);
    if (ps == nullptr) continue;

    RecvWqe r;
    r.wr_id = slot;
    r.sges.push_back(Sge{client_ack_ring_ + slot * sizeof(Cmd), sizeof(Cmd),
                         client_ack_lkey_});
    client_.nic().post_recv(qp_up_, std::move(r));

    window_.complete(
        *ps, [&] { return CasResult(cmd.result, replicas_.size()); },
        issuer());
  }
  cq_up_->arm_notify();
}

void NaiveRdmaGroup::submit_cmd(const Cmd& cmd, Done done, CasDone cas_done) {
  assert(!stopped_ && "primitive on a stopped group");
  window_.submit(cmd, std::move(done), std::move(cas_done), issuer());
}

void NaiveRdmaGroup::issue_cmd(Cmd cmd, Done done, CasDone cas_done) {
  cmd.seq = static_cast<uint32_t>(
      window_.open(std::move(done), std::move(cas_done)));

  const uint64_t slot = cmd.seq % (cfg_.max_inflight * 2);
  const Addr cmd_addr = client_cmd_ring_ + slot * sizeof(Cmd);
  client_.mem().write_obj(cmd_addr, cmd);

  if (cmd.type == 0 && cmd.len > 0) {
    const Replica& r0 = replicas_.front();
    client_.nic().post_send(
        qp_down_,
        rdma::make_write(client_region_ + cmd.offset, 0,
                         r0.data_base + cmd.offset, r0.data_mr.rkey,
                         static_cast<uint32_t>(cmd.len)));
  }
  client_.nic().post_send(qp_down_,
                          rdma::make_send(cmd_addr, 0, sizeof(Cmd)));
}

// ------------------------------------------------------------- primitives --

void NaiveRdmaGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                            Done done) {
  assert(offset + len <= cfg_.region_size);
  Cmd cmd;
  cmd.type = 0;
  cmd.flush = flush ? 1 : 0;
  cmd.offset = offset;
  cmd.len = len;
  submit_cmd(cmd, std::move(done), CasDone{});
}

void NaiveRdmaGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                             uint32_t len, bool flush, Done done) {
  assert(src_offset + len <= cfg_.region_size);
  assert(dst_offset + len <= cfg_.region_size);
  // The client's copy (the head of the chain) copies at the call, not at
  // issue: a parked op must not leave it stale (group.h).
  client_.mem().copy(client_region_ + dst_offset, client_region_ + src_offset,
                     len);
  client_.nvm().persist(client_region_ + dst_offset, len);
  Cmd cmd;
  cmd.type = 1;
  cmd.flush = flush ? 1 : 0;
  cmd.offset = src_offset;
  cmd.dst = dst_offset;
  cmd.len = len;
  submit_cmd(cmd, std::move(done), CasDone{});
}

void NaiveRdmaGroup::gcas(uint64_t offset, uint64_t expected,
                          uint64_t desired, ExecMap exec_map, CasDone done) {
  assert(offset + 8 <= cfg_.region_size);
  Cmd cmd;
  cmd.type = 2;
  cmd.offset = offset;
  cmd.expected = expected;
  cmd.desired = desired;
  cmd.exec_mask = exec_map.bits;
  submit_cmd(cmd, Done{}, std::move(done));
}

void NaiveRdmaGroup::gflush(Done done) {
  gwrite(0, 0, /*flush=*/true, std::move(done));
}

void NaiveRdmaGroup::client_store(uint64_t offset, const void* src,
                                  uint32_t len) {
  assert(offset + len <= cfg_.region_size);
  client_.mem().write(client_region_ + offset, src, len);
  client_.nvm().persist(client_region_ + offset, len);
}

void NaiveRdmaGroup::client_load(uint64_t offset, void* dst,
                                 uint32_t len) const {
  client_.mem().read(client_region_ + offset, dst, len);
}

void NaiveRdmaGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                  uint32_t len) const {
  const Replica& r = replicas_.at(i);
  r.server->mem().read(r.data_base + offset, dst, len);
}

sim::Duration NaiveRdmaGroup::replica_cpu_time(size_t i) const {
  const Replica& r = replicas_.at(i);
  return r.server->sched().stats(r.pid).cpu_time;
}

}  // namespace hyperloop::core
