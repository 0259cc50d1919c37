#include "core/tcp_group.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "core/cpu_costs.h"

namespace hyperloop::core {

TcpReplicationGroup::TcpReplicationGroup(Server& client,
                                         std::vector<Server*> replicas,
                                         Config cfg)
    : BackendGroup(client, std::move(replicas), cfg.region_size,
                   /*nic_index=*/0),
      cfg_(cfg),
      window_(cfg.max_inflight, cfg.max_inflight * 2) {
  assert(replicas_.size() <= ForwardedCmd::kMaxGroup);
  if (cfg_.port == 0) {
    static uint16_t next_port = 20000;
    cfg_.port = next_port++;
  }
  client_pid_ = client_.sched().create_process(client_.name() + "-tcp-cli");
  uint32_t span = 1;
  while (span < cfg_.max_inflight) span <<= 1;
  order_mask_ = span - 1;
  ack_order_.held.resize(span);
  replica_order_.resize(replicas_.size());
  for (InOrder& o : replica_order_) o.held.resize(span);

  client_.tcp().listen(cfg_.port, client_pid_,
                       [this](rdma::NicId, uint16_t, rdma::PayloadBuf m) {
                         on_client_ack(std::move(m));
                       });

  for (size_t i = 0; i < replicas_.size(); ++i) {
    Replica& r = replicas_[i];
    r.pid = r.server->sched().create_process(r.server->name() + "-tcp-repl");
    r.server->tcp().listen(
        cfg_.port, r.pid,
        [this, i](rdma::NicId, uint16_t, rdma::PayloadBuf m) {
          on_replica_message(i, std::move(m));
        });
  }
}

TcpReplicationGroup::~TcpReplicationGroup() { stop(); }

uint64_t TcpReplicationGroup::abort_pending() {
  for (rdma::PayloadBuf& m : ack_order_.held) m.reset();
  for (InOrder& o : replica_order_) {
    for (rdma::PayloadBuf& m : o.held) m.reset();
  }
  return window_.abort_all();
}

void TcpReplicationGroup::on_replica_message(size_t i, rdma::PayloadBuf msg) {
  if (stopped_) return;
  assert(msg.size() >= sizeof(ForwardedCmd));
  ForwardedCmd cmd;
  std::memcpy(&cmd, msg.data(), sizeof(cmd));

  const Replica& r = replicas_[i];

  // Execution cost on the replica CPU (application of the command); the
  // TcpStack already charged the receive-path cost before this handler.
  sim::Duration work = cfg_.per_message_cpu;
  if (cmd.kind() == GroupOp::Kind::kMemcpy) work += cpu_copy_cost(cmd.len);
  if (cmd.flush != 0) work += cpu_persist_cost(cmd.len);

  // The whole [ForwardedCmd][data] buffer travels intact: apply reads the
  // data bytes in place and forward() re-sends the same buffer, so a
  // command's trip down the chain allocates nothing.
  r.server->sched().submit(
      r.pid, work,
      [this, i, m = std::move(msg)]() mutable {
        if (stopped_) return;
        in_order(replica_order_[i], std::move(m),
                 [this, i](rdma::PayloadBuf c) {
                   apply_and_forward(i, std::move(c));
                 });
      },
      /*fresh_wakeup=*/false);
}

template <typename Handle>
void TcpReplicationGroup::in_order(InOrder& o, rdma::PayloadBuf msg,
                                   Handle&& handle) {
  ForwardedCmd cmd;
  std::memcpy(&cmd, msg.data(), sizeof(cmd));
  if (cmd.seq != o.next) {
    rdma::PayloadBuf& slot = o.held[cmd.seq & order_mask_];
    assert(slot.empty() && "more seqs live than the credit window admits");
    slot = std::move(msg);
    return;
  }
  while (!msg.empty()) {
    handle(std::move(msg));
    if (stopped_) return;
    ++o.next;
    msg = std::exchange(o.held[o.next & order_mask_], {});
  }
}

void TcpReplicationGroup::apply_and_forward(size_t i, rdma::PayloadBuf msg) {
  const Replica& r = replicas_[i];
  ForwardedCmd c;
  std::memcpy(&c, msg.data(), sizeof(c));
  if (c.kind() == GroupOp::Kind::kWrite && c.len > 0) {
    r.server->mem().write(r.data_base + c.offset,
                          msg.data() + sizeof(ForwardedCmd), c.len);
  }
  // A flushed command persists everything applied before it too: the
  // pipeline is FIFO per replica, which is what lets callers batch
  // unflushed ops under one trailing flushed op (e.g. the WAL's execute
  // batch).
  c.apply(*r.server, r.data_base, i);
  // The message carries this replica's gCAS result on. A TCP message is
  // never shared, so writing into it in place is safe.
  assert(msg.ref_count() == 1);
  std::memcpy(msg.data(), &c, sizeof(c));
  forward(i, std::move(msg));
}

void TcpReplicationGroup::forward(size_t i, rdma::PayloadBuf msg) {
  const Replica& r = replicas_[i];
  if (i + 1 < replicas_.size()) {
    r.server->tcp().send(r.pid, replicas_[i + 1].nic->id(), cfg_.port,
                         std::move(msg));
  } else {
    // Tail ACKs the client; no need to carry the data back.
    rdma::PayloadBuf ack;
    ack.resize_uninit(sizeof(ForwardedCmd));
    std::memcpy(ack.data(), msg.data(), sizeof(ForwardedCmd));
    r.server->tcp().send(r.pid, client_nic_.id(), cfg_.port, std::move(ack));
  }
}

void TcpReplicationGroup::on_client_ack(rdma::PayloadBuf msg) {
  if (stopped_) return;
  assert(msg.size() >= sizeof(ForwardedCmd));
  in_order(ack_order_, std::move(msg), [this](rdma::PayloadBuf m) {
    ForwardedCmd cmd;
    std::memcpy(&cmd, m.data(), sizeof(cmd));
    auto* slot = window_.ack(cmd.seq);
    if (slot == nullptr) return;
    window_.complete(
        *slot, [&] { return CasResult(cmd.result, replicas_.size()); },
        issuer());
  });
}

void TcpReplicationGroup::submit(const GroupOp& op, Done done,
                                 CasDone cas_done) {
  window_.submit(op, std::move(done), std::move(cas_done), issuer());
}

void TcpReplicationGroup::issue(const GroupOp& op, Done done,
                                CasDone cas_done) {
  ForwardedCmd cmd = ForwardedCmd::from(op);
  cmd.seq = static_cast<uint32_t>(
      window_.open(std::move(done), std::move(cas_done)));

  // Frame the command directly into a pooled buffer: [ForwardedCmd][data].
  const uint32_t payload = op.kind == GroupOp::Kind::kWrite ? op.len : 0;
  rdma::PayloadBuf msg;
  msg.resize_uninit(sizeof(cmd) + payload);
  std::memcpy(msg.data(), &cmd, sizeof(cmd));
  if (payload > 0) {
    client_.mem().read(client_region_ + op.offset, msg.data() + sizeof(cmd),
                       payload);
  }
  client_.tcp().send(client_pid_, replicas_.front().nic->id(), cfg_.port,
                     std::move(msg));
}

}  // namespace hyperloop::core
