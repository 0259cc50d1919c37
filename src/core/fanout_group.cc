#include "core/fanout_group.h"

#include <cassert>
#include <cstring>

namespace hyperloop::core {

using rdma::Addr;
using rdma::RecvWqe;
using rdma::Sge;
using rdma::Wqe;
using rdma::WqeDescriptor;

namespace {

constexpr uint64_t kCasTag = uint64_t{1} << 62;

// Replica ring refill: cadence and CPU cost per wake (off critical path).
constexpr sim::Duration kRefillPeriod = sim::usec(100);
constexpr sim::Duration kRefillCpu = sim::usec(1);

}  // namespace

FanoutGroup::FanoutGroup(Server& client, std::vector<Server*> replicas,
                         Config cfg)
    : BackendGroup(client, std::move(replicas), cfg.region_size,
                   /*nic_index=*/0),
      backups_(replicas_.size() - 1),
      cfg_(cfg),
      window_(cfg.max_inflight, cfg.max_inflight * 4) {
  assert(replicas_.size() >= 2 && "fan-out needs a primary and >=1 backup");
  // Primary rearm posts 4 + 3*K SGEs per slot; keep K within the inline
  // SgeList capacity (same group-size-8 cap as the naive/tcp baselines).
  assert(replicas_.size() <= 8);

  const size_t K = backups_.size();
  client_staging_slot_ = static_cast<uint32_t>(kDescBytes * 3 * (1 + 2 * K));
  client_staging_ = client_.mem().alloc(
      uint64_t{client_staging_slot_} * cfg_.max_inflight * 2, 64);
  const uint64_t ack_ring = uint64_t{ack_stride()} * cfg_.max_inflight * 2;
  ack_base_ = client_.mem().alloc(ack_ring, 64);
  ack_mr_ = client_nic_.register_mr(ack_base_, ack_ring,
                                    rdma::kRemoteWrite | rdma::kLocalWrite);

  cq_down_ = make_cq(client_nic_);
  cq_up_ = make_cq(client_nic_);
  qp_down_ =
      make_qp(client_nic_, cq_down_, nullptr, cfg_.max_inflight * 4 + 16);

  zero_scratch_.assign(ack_stride(), 0);
  cas_scratch_.resize(1 + K);

  setup_primary();
  for (size_t b = 0; b < K; ++b) setup_backup(b);
  wire();

  for (uint64_t s = 0; s < cfg_.ring_slots; ++s) {
    rearm_primary_slot(s);
    for (size_t b = 0; b < K; ++b) rearm_backup_slot(b, s);
  }
  primary_.next_rearm = cfg_.ring_slots;
  for (auto& b : backups_) b.next_rearm = cfg_.ring_slots;

  cq_up_->set_notify([this] { on_ack_cqe(); });
  cq_up_->arm_notify();
  cq_down_->set_notify([this] { on_ack_cqe(); });
  cq_down_->arm_notify();

  for (Replica& r : replicas_) {
    r.pid = r.server->sched().create_process(r.server->name() +
                                             "-fanout-refill");
  }
  refill_tick_primary();
  for (size_t b = 0; b < K; ++b) refill_tick_backup(b);
}

FanoutGroup::~FanoutGroup() { stop(); }

uint64_t FanoutGroup::abort_pending() { return window_.abort_all(); }

// ------------------------------------------------------------------ setup --

void FanoutGroup::setup_primary() {
  rdma::Nic& nic = *replicas_[0].nic;
  rdma::HostMemory& mem = replicas_[0].server->mem();
  const size_t K = backups_.size();

  const size_t arena_start = mem.used();
  primary_.staging_slot = static_cast<uint32_t>(K * 3 * kDescBytes);
  primary_.staging_base =
      mem.alloc(uint64_t{primary_.staging_slot} * cfg_.ring_slots, 64);

  primary_.cq_recv = make_cq(nic);
  primary_.qp_prev = make_qp(nic, nullptr, primary_.cq_recv, cfg_.ring_slots);
  primary_.cq_loop = make_cq(nic);
  primary_.qp_loop =
      make_loopback_qp(nic, primary_.cq_loop, cfg_.ring_slots * 3);
  for (size_t b = 0; b < K; ++b) {
    primary_.cq_out.push_back(make_cq(nic));
    primary_.qp_out.push_back(
        make_qp(nic, primary_.cq_out[b], nullptr, cfg_.ring_slots * 4));
  }
  // The primary's own ACK rides the last out-queue pair... no: a
  // dedicated ack QP keeps thresholds simple.
  primary_.cq_out.push_back(make_cq(nic));
  primary_.qp_out.push_back(
      make_qp(nic, primary_.cq_out[K], nullptr, cfg_.ring_slots * 2));

  const size_t arena_end = mem.used();
  primary_.ring_lkey =
      nic.register_mr(arena_start, arena_end - arena_start, rdma::kLocalWrite)
          .lkey;
}

void FanoutGroup::setup_backup(size_t bi) {
  Backup& b = backups_[bi];
  rdma::Nic& nic = *replicas_[bi + 1].nic;
  rdma::HostMemory& mem = replicas_[bi + 1].server->mem();

  const size_t arena_start = mem.used();
  b.result_base = mem.alloc(uint64_t{8} * cfg_.ring_slots, 64);
  b.cq_recv = make_cq(nic);
  b.qp_prev = make_qp(nic, nullptr, b.cq_recv, cfg_.ring_slots);
  b.cq_loop = make_cq(nic);
  b.qp_loop = make_loopback_qp(nic, b.cq_loop, cfg_.ring_slots * 3);
  b.cq_ack = make_cq(nic);
  b.qp_ack = make_qp(nic, b.cq_ack, nullptr, cfg_.ring_slots * 2);
  const size_t arena_end = mem.used();
  b.ring_lkey =
      nic.register_mr(arena_start, arena_end - arena_start, rdma::kLocalWrite)
          .lkey;
}

void FanoutGroup::wire() {
  const size_t K = backups_.size();
  // An ACK sink on the client for `from`, with a credit window's RECVs.
  auto ack_sink = [this](rdma::QueuePair* from) {
    rdma::QueuePair* up = make_qp(client_nic_, nullptr, cq_up_, 8);
    rdma::connect(from, up);
    for (uint32_t s = 0; s < cfg_.max_inflight * 2; ++s) {
      client_nic_.post_recv(up, RecvWqe{});
    }
  };
  rdma::connect(qp_down_, primary_.qp_prev);
  // primary out QPs: [0..K-1] to the backups, [K] = ack QP to the client.
  for (size_t b = 0; b < K; ++b) {
    rdma::connect(primary_.qp_out[b], backups_[b].qp_prev);
    ack_sink(backups_[b].qp_ack);
  }
  ack_sink(primary_.qp_out[K]);
}

void FanoutGroup::rearm_primary_slot(uint64_t seq) {
  rdma::Nic& nic = *replicas_[0].nic;
  const size_t K = backups_.size();
  RecvWqe recv;
  auto desc_sge = [&](rdma::QueuePair* qp, uint64_t wqe_seq) {
    recv.sges.push_back(
        Sge{qp->slot_addr(wqe_seq), kDescBytes, primary_.ring_lkey});
  };

  // Loopback executor: [WAIT][OP][FLUSH].
  nic.post_send(primary_.qp_loop,
                rdma::make_wait(primary_.cq_recv->id(), seq + 1));
  nic.post_send(primary_.qp_loop, rdma::make_nop(), true);  // OP
  nic.post_send(primary_.qp_loop, rdma::make_nop(), true);  // FLUSH
  desc_sge(primary_.qp_loop, 3 * seq + 1);
  desc_sge(primary_.qp_loop, 3 * seq + 2);

  // Primary ACK: [WAIT(loop >= 2(k+1))][ACK].
  nic.post_send(primary_.qp_out[K],
                rdma::make_wait(primary_.cq_loop->id(), 2 * (seq + 1)));
  nic.post_send(primary_.qp_out[K], rdma::make_nop(), true);  // ACK
  desc_sge(primary_.qp_out[K], 2 * seq + 1);

  // Per-backup forward: [WAIT(recv >= k+1)][WRITE][FLUSH][SEND].
  for (size_t b = 0; b < K; ++b) {
    nic.post_send(primary_.qp_out[b],
                  rdma::make_wait(primary_.cq_recv->id(), seq + 1));
    nic.post_send(primary_.qp_out[b], rdma::make_nop(), true);  // WRITE
    nic.post_send(primary_.qp_out[b], rdma::make_nop(), true);  // FLUSH
    nic.post_send(primary_.qp_out[b], rdma::make_nop(), true);  // SEND
    desc_sge(primary_.qp_out[b], 4 * seq + 1);
    desc_sge(primary_.qp_out[b], 4 * seq + 2);
    desc_sge(primary_.qp_out[b], 4 * seq + 3);
  }
  // Staging: the K per-backup blobs.
  recv.sges.push_back(Sge{
      primary_.staging_base + (seq % cfg_.ring_slots) * primary_.staging_slot,
      primary_.staging_slot, primary_.ring_lkey});
  recv.wr_id = seq;
  nic.post_recv(primary_.qp_prev, std::move(recv));
}

void FanoutGroup::rearm_backup_slot(size_t bi, uint64_t seq) {
  Backup& b = backups_[bi];
  Server& server = *replicas_[bi + 1].server;
  rdma::Nic& nic = *replicas_[bi + 1].nic;
  // Clear the CAS result slot so execute-map-skipped replicas report 0.
  const uint64_t zero = 0;
  server.mem().write(b.result_base + (seq % cfg_.ring_slots) * 8, &zero, 8);

  RecvWqe recv;
  auto desc_sge = [&](rdma::QueuePair* qp, uint64_t wqe_seq) {
    recv.sges.push_back(Sge{qp->slot_addr(wqe_seq), kDescBytes, b.ring_lkey});
  };
  nic.post_send(b.qp_loop, rdma::make_wait(b.cq_recv->id(), seq + 1));
  nic.post_send(b.qp_loop, rdma::make_nop(), true);  // OP
  nic.post_send(b.qp_loop, rdma::make_nop(), true);  // FLUSH
  nic.post_send(b.qp_ack, rdma::make_wait(b.cq_loop->id(), 2 * (seq + 1)));
  nic.post_send(b.qp_ack, rdma::make_nop(), true);  // ACK
  desc_sge(b.qp_loop, 3 * seq + 1);
  desc_sge(b.qp_loop, 3 * seq + 2);
  desc_sge(b.qp_ack, 2 * seq + 1);
  recv.wr_id = seq;
  nic.post_recv(b.qp_prev, std::move(recv));
}

void FanoutGroup::refill_tick_primary() {
  replicas_[0].server->loop().schedule_after(kRefillPeriod, [this] {
    if (stopped_) return;
    Replica& p = replicas_[0];
    p.server->sched().submit(p.pid, kRefillCpu, [this] {
      if (stopped_) return;
      const size_t K = backups_.size();
      while (true) {
        const uint64_t j = primary_.next_rearm - cfg_.ring_slots;
        bool done = primary_.cq_out[K]->completion_count() >= j + 1;
        for (size_t b = 0; b < K && done; ++b) {
          done = primary_.cq_out[b]->completion_count() >= 3 * (j + 1);
        }
        if (!done) break;
        rearm_primary_slot(primary_.next_rearm);
        ++primary_.next_rearm;
      }
      refill_tick_primary();
    });
  });
}

void FanoutGroup::refill_tick_backup(size_t bi) {
  replicas_[bi + 1].server->loop().schedule_after(kRefillPeriod, [this, bi] {
    if (stopped_) return;
    Replica& r = replicas_[bi + 1];
    r.server->sched().submit(r.pid, kRefillCpu, [this, bi] {
      if (stopped_) return;
      Backup& bk = backups_[bi];
      while (bk.cq_ack->completion_count() >=
             bk.next_rearm - cfg_.ring_slots + 1) {
        rearm_backup_slot(bi, bk.next_rearm);
        ++bk.next_rearm;
      }
      refill_tick_backup(bi);
    });
  });
}

// ------------------------------------------------------------ blob build --

rdma::WqeDescriptor FanoutGroup::backup_ack_desc(size_t b, uint64_t seq,
                                                 const GroupOp& op) {
  WqeDescriptor d =
      rdma::make_write_imm(0, 0, ack_slot(seq) + 8 * (1 + b), ack_mr_.rkey,
                           0, static_cast<uint32_t>(seq))
          .d;
  if (op.kind == GroupOp::Kind::kCas) {
    // Carry the 8-byte CAS result.
    d.local_addr =
        backups_[b].result_base + (seq % cfg_.ring_slots) * 8;
    d.lkey = backups_[b].ring_lkey;
    d.length = 8;
  }
  d.active = 1;
  return d;
}

const std::vector<uint8_t>& FanoutGroup::build_blob(uint64_t seq,
                                                    const GroupOp& op) {
  const size_t K = backups_.size();
  const Replica& p = replicas_[0];
  std::vector<uint8_t>& blob = blob_scratch_;
  blob.assign(3 * kDescBytes * (1 + 2 * K), 0);
  uint8_t* out = blob.data();
  auto put = [&out](WqeDescriptor d) {
    d.active = 1;
    std::memcpy(out, &d, kDescBytes);
    out += kDescBytes;
  };

  // Primary loopback [OP][FLUSH] and primary [ACK].
  if (op.kind == GroupOp::Kind::kMemcpy) {
    put(rdma::make_local_copy(p.data_base + op.offset, p.data_base + op.dst,
                              op.len)
            .d);
    put(op.flush ? rdma::make_flush(0, 0).d : rdma::make_nop().d);
  } else {
    put(rdma::make_nop().d);
    put(rdma::make_nop().d);
  }
  put(rdma::make_write_imm(0, 0, ack_slot(seq), ack_mr_.rkey, 0,
                           static_cast<uint32_t>(seq))
          .d);

  // Per-backup forward triples on the primary.
  for (size_t b = 0; b < K; ++b) {
    const Replica& bb = replicas_[b + 1];
    if (op.kind == GroupOp::Kind::kWrite) {
      // Primary fans out bytes the client WRITE already landed: borrow.
      Wqe fwd = rdma::make_write(p.data_base + op.offset, 0,
                                 bb.data_base + op.offset, bb.data_mr.rkey,
                                 op.len);
      fwd.d.flags |= rdma::kWqeFlagZeroCopy;
      put(fwd.d);
      put(op.flush ? rdma::make_flush(bb.data_base, bb.data_mr.rkey).d
                   : rdma::make_nop().d);
    } else {
      put(rdma::make_nop().d);
      put(rdma::make_nop().d);
    }
    put(rdma::make_send(
            primary_.staging_base +
                (seq % cfg_.ring_slots) * primary_.staging_slot +
                b * 3 * kDescBytes,
            primary_.ring_lkey, 3 * kDescBytes)
            .d);
  }

  // Per-backup blobs (forwarded by the SENDs above): [OP][FLUSH][ACK].
  for (size_t b = 0; b < K; ++b) {
    const Replica& bb = replicas_[b + 1];
    if (op.kind == GroupOp::Kind::kMemcpy) {
      put(rdma::make_local_copy(bb.data_base + op.offset,
                                bb.data_base + op.dst, op.len)
              .d);
      put(op.flush ? rdma::make_flush(0, 0).d : rdma::make_nop().d);
    } else if (op.kind == GroupOp::Kind::kCas && op.exec.test(b + 1)) {
      put(rdma::make_cas(backups_[b].result_base +
                             (seq % cfg_.ring_slots) * 8,
                         backups_[b].ring_lkey, bb.data_base + op.offset,
                         bb.data_mr.rkey, op.expected, op.desired)
              .d);
      put(rdma::make_nop().d);
    } else {
      put(rdma::make_nop().d);
      put(rdma::make_nop().d);
    }
    put(backup_ack_desc(b, seq, op));
  }
  return blob;
}

// ------------------------------------------------------------ client path --

void FanoutGroup::submit(const GroupOp& op, Done done, CasDone cas_done) {
  window_.submit(op, std::move(done), std::move(cas_done), issuer());
}

void FanoutGroup::issue(const GroupOp& op, Done done, CasDone cas_done) {
  const size_t K = backups_.size();
  const Replica& p = replicas_[0];
  const bool cas = op.kind == GroupOp::Kind::kCas;
  // ACKs due: the primary's and every backup's, plus the client's own
  // CAS on the primary when the execute map includes it.
  const uint32_t acks =
      static_cast<uint32_t>(1 + K) + (cas && op.exec.test(0));
  const uint64_t seq =
      window_.open(std::move(done), std::move(cas_done), acks);
  if (cas) {
    // Clear the result slot so skipped replicas (and a skipped primary)
    // report 0 rather than a stale value from a previous ring lap.
    client_.mem().write(ack_slot(seq), zero_scratch_.data(), ack_stride());
  }

  // Client-side direct work against the primary.
  if (op.kind == GroupOp::Kind::kWrite) {
    if (op.len > 0) {
      client_nic_.post_send(
          qp_down_, rdma::make_write(client_region_ + op.offset, 0,
                                     p.data_base + op.offset, p.data_mr.rkey,
                                     op.len));
    }
    if (op.flush) {
      client_nic_.post_send(qp_down_,
                            rdma::make_flush(p.data_base, p.data_mr.rkey));
    }
  } else if (cas && op.exec.test(0)) {
    // One-sided CAS against the primary; the result lands in the ack slot
    // (index 0) so the assembly code reads all results from one place.
    Wqe cas = rdma::make_cas(ack_slot(seq), ack_mr_.lkey,
                             p.data_base + op.offset, p.data_mr.rkey,
                             op.expected, op.desired, kCasTag | seq);
    client_nic_.post_send(qp_down_, cas);
  }

  // Metadata SEND that triggers the primary's fan-out.
  const auto& blob = build_blob(seq, op);
  const Addr slot =
      client_staging_ + (seq % (cfg_.max_inflight * 2)) * client_staging_slot_;
  client_.mem().write(slot, blob.data(), blob.size());
  client_nic_.post_send(
      qp_down_, rdma::make_send(slot, 0, static_cast<uint32_t>(blob.size())));
}

void FanoutGroup::count_ack(uint32_t seq) {
  auto* slot = window_.ack(seq);
  if (slot == nullptr) return;
  window_.complete(
      *slot,
      [&] {
        client_.mem().read(ack_slot(seq), cas_scratch_.data(), ack_stride());
        return CasResult(cas_scratch_.data(), replicas_.size());
      },
      issuer());
}

void FanoutGroup::on_ack_cqe() {
  rdma::Cqe cqe;
  while (cq_up_->poll(&cqe)) {
    if (!cqe.has_imm) continue;
    client_nic_.post_recv(client_nic_.qp(cqe.qpn), RecvWqe{});
    count_ack(cqe.imm);
    if (stopped_) return;  // the callback stopped the group: the CQs are gone
  }
  while (cq_down_->poll(&cqe)) {
    if ((cqe.wr_id & kCasTag) != 0) {
      count_ack(static_cast<uint32_t>(cqe.wr_id & 0xffffffffu));
      if (stopped_) return;
    }
  }
  cq_up_->arm_notify();
  cq_down_->arm_notify();
}

}  // namespace hyperloop::core
