#include "core/naive_group.h"

#include <cassert>

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
    : BackendGroup(client, std::move(replicas), cfg.region_size,
                   /*nic_index=*/0),
      hops_(replicas_.size()),
      cfg_(cfg),
      window_(cfg.max_inflight, cfg.max_inflight * 2) {
  assert(replicas_.size() <= ForwardedCmd::kMaxGroup);
  assert(cfg_.max_inflight * 2 <= cfg_.recv_slots);

  client_cmd_ring_ =
      client_.mem().alloc(sizeof(ForwardedCmd) * cfg_.max_inflight * 2, 64);
  client_ack_ring_ =
      client_.mem().alloc(sizeof(ForwardedCmd) * cfg_.max_inflight * 2, 64);
  const auto ack_mr = client_nic_.register_mr(
      client_ack_ring_, sizeof(ForwardedCmd) * cfg_.max_inflight * 2,
      rdma::kLocalWrite);
  client_ack_lkey_ = ack_mr.lkey;

  rdma::CompletionQueue* cq_down = make_cq(client_nic_);
  cq_up_ = make_cq(client_nic_);
  qp_down_ = make_qp(client_nic_, cq_down, nullptr, cfg_.max_inflight * 4 + 16);
  qp_up_ = make_qp(client_nic_, nullptr, cq_up_, 16);

  for (size_t i = 0; i < replicas_.size(); ++i) setup_replica(i);
  wire_chain();

  // Client ACK receive ring.
  for (uint32_t s = 0; s < cfg_.max_inflight * 2; ++s) {
    RecvWqe r;
    r.wr_id = s;
    r.sges.push_back(Sge{client_ack_ring_ + uint64_t{s} * sizeof(ForwardedCmd),
                         sizeof(ForwardedCmd), client_ack_lkey_});
    client_nic_.post_recv(qp_up_, std::move(r));
  }
  cq_up_->set_notify([this] { on_client_ack(); });
  cq_up_->arm_notify();
}

NaiveRdmaGroup::~NaiveRdmaGroup() { stop(); }

uint64_t NaiveRdmaGroup::abort_pending() { return window_.abort_all(); }

void NaiveRdmaGroup::setup_replica(size_t i) {
  Replica& r = replicas_[i];
  Hop& h = hops_[i];
  rdma::Nic& nic = *r.nic;
  rdma::HostMemory& mem = r.server->mem();

  h.cmd_ring = mem.alloc(sizeof(ForwardedCmd) * cfg_.recv_slots, 64);
  const auto cmd_mr = nic.register_mr(
      h.cmd_ring, sizeof(ForwardedCmd) * cfg_.recv_slots, rdma::kLocalWrite);
  h.cmd_lkey = cmd_mr.lkey;

  h.cq_recv = make_cq(nic);
  rdma::CompletionQueue* cq_send = make_cq(nic);
  h.qp_prev = make_qp(nic, nullptr, h.cq_recv, 16);
  h.qp_next = make_qp(nic, cq_send, nullptr, cfg_.recv_slots * 2 + 16);

  for (uint32_t s = 0; s < cfg_.recv_slots; ++s) post_recv_slot(i, s);

  r.pid = r.server->sched().create_process(r.server->name() + "-naive-repl");
  if (cfg_.mode == Mode::kPolling) {
    const bool ok = r.server->sched().pin_core(r.pid);
    assert(ok && "no free core to pin for polling replica");
    (void)ok;
  }
  if (cfg_.mode == Mode::kSharedPolling) {
    shared_poll_loop(i);
  } else {
    h.cq_recv->set_notify([this, i] { on_replica_notify(i); });
    h.cq_recv->arm_notify();
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
        if (hops_[i].cq_recv->available() > 0) {
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
  rdma::connect(qp_down_, hops_.front().qp_prev);
  for (size_t i = 0; i + 1 < hops_.size(); ++i) {
    rdma::connect(hops_[i].qp_next, hops_[i + 1].qp_prev);
  }
  rdma::connect(hops_.back().qp_next, qp_up_);
}

void NaiveRdmaGroup::post_recv_slot(size_t i, uint64_t slot) {
  const Hop& h = hops_[i];
  RecvWqe recv;
  recv.wr_id = slot;
  recv.sges.push_back(Sge{h.cmd_ring + slot * sizeof(ForwardedCmd),
                          sizeof(ForwardedCmd), h.cmd_lkey});
  replicas_[i].nic->post_recv(h.qp_prev, std::move(recv));
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

sim::Duration NaiveRdmaGroup::message_cost(const ForwardedCmd& cmd) const {
  sim::Duration extra = 0;
  if (cmd.kind() == GroupOp::Kind::kMemcpy) {
    extra += cpu_copy_cost(cmd.len);  // gmemcpy on the CPU
  }
  if (cmd.kind() == GroupOp::Kind::kCas) extra += sim::nsec(200);
  if (cmd.flush != 0) extra += cpu_persist_cost(cmd.len);
  return extra;
}

void NaiveRdmaGroup::replica_drain(size_t i) {
  if (stopped_) return;
  Replica& r = replicas_[i];
  const Hop& h = hops_[i];
  rdma::Cqe cqe;
  if (!h.cq_recv->poll(&cqe)) {
    if (cfg_.mode == Mode::kSharedPolling) {
      shared_poll_loop(i);
    } else {
      h.cq_recv->arm_notify();
    }
    return;
  }
  const uint64_t slot = cqe.wr_id;
  const ForwardedCmd cmd = r.server->mem().read_obj<ForwardedCmd>(
      h.cmd_ring + slot * sizeof(ForwardedCmd));

  auto finish = [this, i, slot, cmd] {
    if (stopped_) return;
    Replica& rr = replicas_[i];
    rdma::CompletionQueue* cq = hops_[i].cq_recv;
    execute_and_forward(i, cmd);
    post_recv_slot(i, slot % cfg_.recv_slots);
    if (cq->available() > 0) {
      // More messages pending: keep the process running (no fresh wakeup,
      // but it re-queues for a core, i.e. can be preempted).
      rr.server->sched().submit(rr.pid, kPerMessage,
                                [this, i] { replica_drain(i); },
                                /*fresh_wakeup=*/false);
    } else if (cfg_.mode == Mode::kSharedPolling) {
      shared_poll_loop(i);
    } else {
      cq->arm_notify();
      if (cq->available() > 0) on_replica_notify(i);
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

void NaiveRdmaGroup::execute_and_forward(size_t i, ForwardedCmd cmd) {
  Replica& r = replicas_[i];
  const Hop& h = hops_[i];
  cmd.apply(*r.server, r.data_base, i);

  // Stage the (possibly updated) command back into the slot buffer and
  // forward it. For gwrite, forward the data first.
  const uint64_t slot_addr =
      h.cmd_ring + (cmd.seq % cfg_.recv_slots) * sizeof(ForwardedCmd);
  r.server->mem().write_obj(slot_addr, cmd);

  if (i + 1 < replicas_.size()) {
    const Replica& next = replicas_[i + 1];
    if (cmd.kind() == GroupOp::Kind::kWrite && cmd.len > 0) {
      Wqe data = rdma::make_write(r.data_base + cmd.offset, 0,
                                  next.data_base + cmd.offset,
                                  next.data_mr.rkey,
                                  static_cast<uint32_t>(cmd.len));
      // Forwarding bytes the upstream hop already landed here: borrow.
      data.d.flags |= rdma::kWqeFlagZeroCopy;
      r.nic->post_send(h.qp_next, data);
    }
  }
  // Down the chain, or from the tail back to the client as the ACK.
  r.nic->post_send(
      h.qp_next, rdma::make_send(slot_addr, 0, sizeof(ForwardedCmd)));
}

// ------------------------------------------------------------ client path --

void NaiveRdmaGroup::on_client_ack() {
  rdma::Cqe cqe;
  while (cq_up_->poll(&cqe)) {
    const uint64_t slot = cqe.wr_id;
    const ForwardedCmd cmd = client_.mem().read_obj<ForwardedCmd>(
        client_ack_ring_ + slot * sizeof(ForwardedCmd));
    auto* ps = window_.ack(cmd.seq);
    if (ps == nullptr) continue;

    RecvWqe r;
    r.wr_id = slot;
    r.sges.push_back(Sge{client_ack_ring_ + slot * sizeof(ForwardedCmd),
                         sizeof(ForwardedCmd), client_ack_lkey_});
    client_nic_.post_recv(qp_up_, std::move(r));

    window_.complete(
        *ps, [&] { return CasResult(cmd.result, replicas_.size()); },
        issuer());
    if (stopped_) return;  // the callback stopped the group: cq_up_ is gone
  }
  cq_up_->arm_notify();
}

void NaiveRdmaGroup::submit(const GroupOp& op, Done done, CasDone cas_done) {
  window_.submit(op, std::move(done), std::move(cas_done), issuer());
}

void NaiveRdmaGroup::issue(const GroupOp& op, Done done, CasDone cas_done) {
  ForwardedCmd cmd = ForwardedCmd::from(op);
  cmd.seq = static_cast<uint32_t>(
      window_.open(std::move(done), std::move(cas_done)));

  const uint64_t slot = cmd.seq % (cfg_.max_inflight * 2);
  const Addr cmd_addr = client_cmd_ring_ + slot * sizeof(ForwardedCmd);
  client_.mem().write_obj(cmd_addr, cmd);

  if (op.kind == GroupOp::Kind::kWrite && op.len > 0) {
    const Replica& r0 = replicas_.front();
    client_nic_.post_send(
        qp_down_, rdma::make_write(client_region_ + op.offset, 0,
                                   r0.data_base + op.offset, r0.data_mr.rkey,
                                   op.len));
  }
  client_nic_.post_send(qp_down_,
                        rdma::make_send(cmd_addr, 0, sizeof(ForwardedCmd)));
}

}  // namespace hyperloop::core
