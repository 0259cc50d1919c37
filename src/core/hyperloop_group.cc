#include "core/hyperloop_group.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hyperloop::core {

using rdma::Addr;
using rdma::RecvWqe;
using rdma::Sge;
using rdma::Wqe;
using rdma::WqeDescriptor;

namespace {

// Replica refill CPU cost (off the critical path): each wake pays the
// base cost plus a per-re-armed-slot cost.
constexpr sim::Duration kRefillCpu = sim::usec(1);
constexpr sim::Duration kRefillCpuPerSlot = sim::nsec(150);

}  // namespace

void HyperLoopGroup::Config::validate() const {
  if (max_inflight == 0) {
    std::fprintf(stderr,
                 "HyperLoopGroup::Config: max_inflight=0; the credit window "
                 "must admit at least one op\n");
    std::abort();
  }
}

HyperLoopGroup::HyperLoopGroup(Server& client, std::vector<Server*> replicas,
                               Config cfg)
    : BackendGroup(client, std::move(replicas), cfg.region_size,
                   cfg.nic_index),
      rings_(replicas_.size()),
      cfg_(cfg) {
  cfg_.validate();
  client_zeros_ = client_.mem().alloc(result_bytes(), 64);
  cas_scratch_.resize(replicas_.size());

  for (size_t i = 0; i < replicas_.size(); ++i) setup_replica(i);
  for (int p = 0; p < kNumPrims; ++p) setup_client_chain(static_cast<Prim>(p));

  // Wire the chain: client -> R0 -> ... -> R{G-1} -> client.
  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ClientChain& cc = client_chain_[pi];
    rdma::connect(cc.qp_down, rings_.front().chain[pi].qp_prev);
    for (size_t i = 0; i + 1 < replicas_.size(); ++i) {
      rdma::connect(rings_[i].chain[pi].qp_next,
                    rings_[i + 1].chain[pi].qp_prev);
    }
    rdma::connect(rings_.back().chain[pi].qp_next, cc.qp_up);

    // Pre-arm the full ring on every replica.
    for (uint64_t s = 0; s < cfg_.ring_slots; ++s) {
      for (size_t i = 0; i < replicas_.size(); ++i) rearm_slot(i, p, s);
    }
    for (size_t i = 0; i < replicas_.size(); ++i) {
      rings_[i].chain[pi].next_rearm = cfg_.ring_slots;
    }

    // Client ack RECV ring + event-driven ack handling.
    for (uint32_t s = 0; s < cfg_.max_inflight * 2; ++s) {
      client_nic_.post_recv(cc.qp_up, RecvWqe{});
    }
    cc.cq_up->set_notify([this, p] { on_ack_cqe(p); });
    cc.cq_up->arm_notify();
  }

  for (size_t i = 0; i < replicas_.size(); ++i) start_refill(i);
}

HyperLoopGroup::~HyperLoopGroup() { stop(); }

uint64_t HyperLoopGroup::abort_pending() {
  uint64_t n = 0;
  for (ClientChain& cc : client_chain_) n += cc.window.abort_all();
  return n;
}

// ------------------------------------------------------------------ setup --

void HyperLoopGroup::setup_replica(size_t idx) {
  rdma::Nic& nic = *replicas_[idx].nic;
  rdma::HostMemory& mem = replicas_[idx].server->mem();
  ReplicaRings& r = rings_[idx];

  const size_t arena_start = mem.used();

  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ReplicaChain& c = r.chain[pi];

    c.staging_slot =
        desc_count(p) * kDescBytes *
        static_cast<uint32_t>(replicas_.size() > 0 ? replicas_.size() - 1 : 0);
    if (c.staging_slot == 0) c.staging_slot = kDescBytes;  // 1-replica groups
    c.staging_len = desc_count(p) * kDescBytes *
                    static_cast<uint32_t>(replicas_.size() - 1 - idx);
    c.staging_base = mem.alloc(uint64_t{c.staging_slot} * cfg_.ring_slots, 64);
    if (p == Prim::kCas) {
      c.result_base =
          mem.alloc(uint64_t{result_bytes()} * cfg_.ring_slots, 64);
    }

    // Chain CQs are consumed only through WAIT counters, never polled:
    // counting-only (capacity 0) so wrapped rings don't hoard dead CQEs.
    c.cq_recv_prev = make_cq(nic, 0);
    c.cq_send_next = make_cq(nic, 0);
    c.qp_prev = make_qp(nic, nullptr, c.cq_recv_prev, cfg_.ring_slots);
    c.qp_next = make_qp(nic, c.cq_send_next, nullptr,
                        cfg_.ring_slots * next_wqes(p));
    if (loop_wqes(p) > 0) {
      c.cq_loop = make_cq(nic, 0);
      c.qp_loop =
          make_loopback_qp(nic, c.cq_loop, cfg_.ring_slots * loop_wqes(p));
    }
  }

  // One local-write MR spanning everything allocated above (staging,
  // result rings, and the WQE rings inside the QPs): the registration that
  // makes work queues writable by inbound scatters — with bounds checks.
  const size_t arena_end = mem.used();
  const rdma::MemoryRegion ring_mr = nic.register_mr(
      arena_start, arena_end - arena_start, rdma::kLocalWrite);
  for (int pi = 0; pi < kNumPrims; ++pi) {
    r.chain[pi].ring_lkey = ring_mr.lkey;
  }
}

void HyperLoopGroup::setup_client_chain(Prim p) {
  ClientChain& cc = client_chain_[static_cast<int>(p)];
  rdma::HostMemory& mem = client_.mem();

  cc.staging_slot =
      desc_count(p) * kDescBytes * static_cast<uint32_t>(replicas_.size());
  cc.staging_base =
      mem.alloc(uint64_t{cc.staging_slot} * cfg_.max_inflight * 2, 64);
  cc.ack_base =
      mem.alloc(uint64_t{result_bytes()} * cfg_.max_inflight * 2, 64);
  cc.ack_mr = client_nic_.register_mr(
      cc.ack_base, uint64_t{result_bytes()} * cfg_.max_inflight * 2,
      rdma::kRemoteWrite | rdma::kLocalWrite);

  // The send side is counting-only: it is never polled.
  rdma::CompletionQueue* cq_down = make_cq(client_nic_, 0);
  cc.cq_up = make_cq(client_nic_);  // polled by on_ack_cqe for the imm seq
  // Room for a full credit window of staged submissions: extent WRITEs +
  // FLUSH + metadata SEND per op (kWriteV stages the most per op).
  cc.qp_down = make_qp(client_nic_, cq_down, nullptr,
                       cfg_.max_inflight * (desc_count(p) + 2) + 16);
  cc.qp_up = make_qp(client_nic_, nullptr, cc.cq_up, 16);
  cc.window = OpWindow<Args>(cfg_.max_inflight, cfg_.max_inflight * 2);
}

void HyperLoopGroup::rearm_slot(size_t replica, Prim p, uint64_t seq) {
  ReplicaChain& c = rings_[replica].chain[static_cast<int>(p)];
  rdma::Nic& nic = *replicas_[replica].nic;
  const uint32_t S = cfg_.ring_slots;

  RecvWqe recv;
  auto desc_sge = [&](rdma::QueuePair* qp, uint64_t wqe_seq) {
    // Patch lands on the WqeDescriptor at the start of the slot.
    recv.sges.push_back(Sge{qp->slot_addr(wqe_seq), kDescBytes, c.ring_lkey});
  };

  // Each queue's slot WQEs are staged together and doorbelled once — the
  // off-path refill driver batches its posts like a real ibv_post_send
  // with a linked WR list. Deferred WQEs are staged as NOPs: the client's
  // patch overwrites them, and only their `signaled` bit matters, for the
  // completion counts that drive WAIT thresholds and refill.
  switch (p) {
    case Prim::kWrite:
    case Prim::kWriteV: {
      // The patch decides which of the slot's WQEs are WRITEs, the FLUSH,
      // the SEND and NOPs (stage_write_blob).
      const uint64_t n = next_wqes(p);
      nic.stage_send(c.qp_next, rdma::make_wait(c.cq_recv_prev->id(), seq + 1));
      for (uint32_t j = 1; j < n; ++j) {
        nic.stage_send(c.qp_next, rdma::make_nop(), /*deferred=*/true);
        desc_sge(c.qp_next, n * seq + j);
      }
      nic.ring_doorbell(c.qp_next);
      break;
    }
    case Prim::kMemcpy: {
      nic.stage_send(c.qp_loop, rdma::make_wait(c.cq_recv_prev->id(), seq + 1));
      nic.stage_send(c.qp_loop, rdma::make_nop(), true);  // COPY
      nic.stage_send(c.qp_loop, rdma::make_nop(), true);  // FLUSH
      nic.ring_doorbell(c.qp_loop);
      nic.stage_send(c.qp_next,
                     rdma::make_wait(c.cq_loop->id(), 2 * (seq + 1)));
      nic.stage_send(c.qp_next, rdma::make_nop(), true);  // SEND
      nic.ring_doorbell(c.qp_next);
      desc_sge(c.qp_loop, 3 * seq + 1);
      desc_sge(c.qp_loop, 3 * seq + 2);
      desc_sge(c.qp_next, 2 * seq + 1);
      break;
    }
    case Prim::kCas: {
      nic.stage_send(c.qp_loop, rdma::make_wait(c.cq_recv_prev->id(), seq + 1));
      nic.stage_send(c.qp_loop, rdma::make_nop(), true);  // CAS
      nic.ring_doorbell(c.qp_loop);
      nic.stage_send(c.qp_next, rdma::make_wait(c.cq_loop->id(), seq + 1));
      nic.stage_send(c.qp_next, rdma::make_nop(), true);  // SEND
      nic.ring_doorbell(c.qp_next);
      desc_sge(c.qp_loop, 2 * seq + 1);
      desc_sge(c.qp_next, 2 * seq + 1);
      break;
    }
  }

  if (c.staging_len > 0) {
    recv.sges.push_back(Sge{c.staging_base + (seq % S) * c.staging_slot,
                            c.staging_len, c.ring_lkey});
  }
  if (p == Prim::kCas) {
    recv.sges.push_back(Sge{c.result_base + (seq % S) * result_bytes(),
                            result_bytes(), c.ring_lkey});
  }
  recv.wr_id = seq;
  nic.post_recv(c.qp_prev, std::move(recv));
}

void HyperLoopGroup::start_refill(size_t replica) {
  Replica& r = replicas_[replica];
  if (cfg_.refill_via_cpu) {
    r.pid = r.server->sched().create_process(r.server->name() + "-hl-refill");
  }
  refill_tick(replica);
}

void HyperLoopGroup::refill_tick(size_t replica) {
  Replica& r = replicas_[replica];
  r.server->loop().schedule_after(cfg_.refill_period, [this, replica] {
    if (stopped_) return;
    Replica& rr = replicas_[replica];
    if (cfg_.refill_via_cpu) {
      rr.server->sched().submit(
          rr.pid, kRefillCpu, [this, replica] {
            if (stopped_) return;
            const uint32_t rearmed = do_refill(replica);
            if (rearmed > 0) {
              // Charge the per-slot driver work (posts + RECVs), still off
              // the critical path.
              replicas_[replica].server->sched().submit(
                  replicas_[replica].pid,
                  kRefillCpuPerSlot * static_cast<sim::Duration>(rearmed),
                  [this, replica] {
                    if (!stopped_) refill_tick(replica);
                  },
                  /*fresh_wakeup=*/false);
            } else {
              refill_tick(replica);
            }
          });
    } else {
      do_refill(replica);
      refill_tick(replica);
    }
  });
}

uint32_t HyperLoopGroup::do_refill(size_t replica) {
  uint32_t rearmed = 0;
  for (int pi = 0; pi < kNumPrims; ++pi) {
    const auto p = static_cast<Prim>(pi);
    ReplicaChain& c = rings_[replica].chain[pi];
    while (true) {
      const uint64_t finished_slot = c.next_rearm - cfg_.ring_slots;
      if (c.cq_send_next->completion_count() <
          uint64_t{next_completions(p)} * (finished_slot + 1)) {
        break;
      }
      rearm_slot(replica, p, c.next_rearm);
      ++c.next_rearm;
      ++rearmed;
    }
  }
  return rearmed;
}

// ---------------------------------------------------------- client issue --

Addr HyperLoopGroup::client_slot(Prim p, uint64_t seq) const {
  const ClientChain& cc = client_chain_[static_cast<int>(p)];
  return cc.staging_base + (seq % (cfg_.max_inflight * 2)) * cc.staging_slot;
}

Addr HyperLoopGroup::ack_slot(Prim p, uint64_t seq) const {
  return client_chain_[static_cast<int>(p)].ack_base +
         (seq % (cfg_.max_inflight * 2)) * result_bytes();
}

WqeDescriptor HyperLoopGroup::hop_trigger(Prim p, size_t i,
                                          uint64_t seq) const {
  if (i + 1 < replicas_.size()) {
    const ReplicaChain& c = rings_[i].chain[static_cast<int>(p)];
    return rdma::make_send(
               c.staging_base + (seq % cfg_.ring_slots) * c.staging_slot,
               c.ring_lkey, c.staging_len)
        .d;
  }
  return rdma::make_write_imm(0, 0, ack_slot(p, seq),
                              client_chain_[static_cast<int>(p)].ack_mr.rkey,
                              0, static_cast<uint32_t>(seq))
      .d;
}

uint32_t HyperLoopGroup::stage_write_blob(Prim p, uint64_t seq,
                                          const ExtentVec& extents,
                                          bool flush) {
  const size_t G = replicas_.size();
  const Addr slot = client_slot(p, seq);
  const uint32_t nd = desc_count(p);  // WRITEs + FLUSH + SEND

  // Live WQEs first and NOPs last, so that each hop forwards right behind
  // its last live WQE (see the header).
  WqeDescriptor descs[kMaxExtents + 2];
  for (size_t i = 0; i < G; ++i) {
    uint32_t j = 0;
    if (i + 1 < G) {
      const Replica& next = replicas_[i + 1];
      for (const Extent& e : extents) {
        descs[j] = rdma::make_write(replicas_[i].data_base + e.offset, 0,
                                    next.data_base + e.offset,
                                    next.data_mr.rkey, e.len)
                       .d;
        // The forward hop re-sends bytes the upstream WRITE just landed
        // in this replica's region — borrow them instead of re-gathering.
        // The slot's own FLUSH/SEND behind it acks the WRITE cumulatively.
        descs[j++].flags |= rdma::kWqeFlagZeroCopy | rdma::kWqeFlagAckElide;
      }
      if (flush) {
        descs[j++] = rdma::make_flush(next.data_base, next.data_mr.rkey).d;
      }
    }
    // The last hop only ACKs the client: the previous hop's WRITEs and
    // FLUSH (or the client's, when G == 1) placed its data.
    descs[j++] = hop_trigger(p, i, seq);
    for (; j < nd; ++j) descs[j] = rdma::make_nop().d;
    for (j = 0; j < nd; ++j) descs[j].active = 1;
    client_.mem().write(slot + i * nd * kDescBytes, descs, nd * kDescBytes);
  }
  return static_cast<uint32_t>(nd * kDescBytes * G);
}

uint32_t HyperLoopGroup::stage_gmemcpy_blob(uint64_t seq, const GroupOp& op) {
  const size_t G = replicas_.size();
  const Addr slot = client_slot(Prim::kMemcpy, seq);

  WqeDescriptor trio[3];
  for (size_t i = 0; i < G; ++i) {
    trio[0] = rdma::make_local_copy(replicas_[i].data_base + op.offset,
                                    replicas_[i].data_base + op.dst, op.len)
                  .d;
    trio[1] = op.flush ? rdma::make_flush(0, 0).d : rdma::make_nop().d;
    trio[2] = hop_trigger(Prim::kMemcpy, i, seq);
    trio[0].active = trio[1].active = trio[2].active = 1;
    client_.mem().write(slot + i * 3 * kDescBytes, trio, 3 * kDescBytes);
  }
  return static_cast<uint32_t>(3 * kDescBytes * G);
}

uint32_t HyperLoopGroup::stage_gcas_blob(uint64_t seq, const GroupOp& op) {
  const size_t G = replicas_.size();
  const Addr slot = client_slot(Prim::kCas, seq);

  WqeDescriptor duo[2];
  for (size_t i = 0; i < G; ++i) {
    const ReplicaChain& c = rings_[i].chain[static_cast<int>(Prim::kCas)];
    const Addr result_slot =
        c.result_base + (seq % cfg_.ring_slots) * result_bytes();
    if (op.exec.test(i)) {
      duo[0] = rdma::make_cas(result_slot + 8 * i, c.ring_lkey,
                              replicas_[i].data_base + op.offset,
                              replicas_[i].data_mr.rkey, op.expected,
                              op.desired)
                   .d;
    } else {
      // Execute map cleared: the pre-posted CAS becomes a NOP (§4.2).
      duo[0] = rdma::make_nop().d;
    }
    duo[1] = hop_trigger(Prim::kCas, i, seq);
    duo[1].aux_addr = result_slot;
    duo[1].aux_length = result_bytes();
    duo[0].active = duo[1].active = 1;
    client_.mem().write(slot + i * 2 * kDescBytes, duo, 2 * kDescBytes);
  }
  return static_cast<uint32_t>(2 * kDescBytes * G);
}

void HyperLoopGroup::stage_meta_send(Prim p, uint64_t seq, uint32_t blob_len) {
  Wqe send = rdma::make_send(client_slot(p, seq), 0, blob_len);
  if (p == Prim::kCas) {
    // Seed the result map with zeros so excluded replicas report 0.
    send.d.aux_addr = client_zeros_;
    send.d.aux_length = result_bytes();
  }
  client_nic_.stage_send(client_chain_[static_cast<int>(p)].qp_down, send);
}

void HyperLoopGroup::on_ack_cqe(Prim p) {
  ClientChain& cc = client_chain_[static_cast<int>(p)];
  rdma::Cqe cqe;
  while (cc.cq_up->poll(&cqe)) {
    if (!cqe.has_imm) continue;
    auto* slot = cc.window.ack(cqe.imm);
    if (slot == nullptr) continue;
    client_nic_.post_recv(cc.qp_up, RecvWqe{});
    cc.window.complete(
        *slot,
        [&] {
          client_.mem().read(ack_slot(p, cqe.imm), cas_scratch_.data(),
                             result_bytes());
          return CasResult(cas_scratch_.data(), replicas_.size());
        },
        issuer(p));
    if (stopped_) return;  // the callback stopped the group: cq_up is gone
  }
  cc.cq_up->arm_notify();
}

// ------------------------------------------------------------- primitives --

void HyperLoopGroup::submit(const GroupOp& op, Done done,
                            CasDone cas_done) {
  Args args;
  args.op = op;
  if (op.kind == GroupOp::Kind::kWrite) {
    args.extents.push_back({op.offset, op.len});
  }
  submit_to(static_cast<Prim>(op.kind), args, std::move(done),
            std::move(cas_done));
}

void HyperLoopGroup::submit_to(Prim p, const Args& args, Done done,
                               CasDone cas_done) {
  client_chain_[static_cast<int>(p)].window.submit(
      args, std::move(done), std::move(cas_done), issuer(p));
}

void HyperLoopGroup::issue(Prim p, const Args& args, Done done,
                           CasDone cas_done) {
  ClientChain& cc = client_chain_[static_cast<int>(p)];
  const Replica& r0 = replicas_.front();
  const uint64_t seq = cc.window.open(std::move(done), std::move(cas_done));
  uint32_t blob_len = 0;
  switch (p) {
    case Prim::kWrite:
    case Prim::kWriteV: {
      if (p == Prim::kWrite) {
        ++counters_.gwrites;
      } else {
        ++counters_.gwritevs;
        counters_.gwritev_extents += args.extents.size();
      }
      // Every extent WRITE to the first replica, one trailing FLUSH, and
      // the metadata SEND that drives the offloaded chain — staged
      // together under one doorbell, one chain traversal. The SEND behind
      // them (same QP) acknowledges the WRITEs cumulatively — no
      // standalone ACK packet needed.
      for (const Extent& e : args.extents) {
        Wqe data = rdma::make_write(client_region_ + e.offset, 0,
                                    r0.data_base + e.offset, r0.data_mr.rkey,
                                    e.len);
        data.d.flags |= rdma::kWqeFlagAckElide;
        client_nic_.stage_send(cc.qp_down, data);
      }
      if (args.op.flush) {
        client_nic_.stage_send(
            cc.qp_down, rdma::make_flush(r0.data_base, r0.data_mr.rkey));
      }
      blob_len = stage_write_blob(p, seq, args.extents, args.op.flush);
      break;
    }
    case Prim::kMemcpy: {
      ++counters_.gmemcpys;
      blob_len = stage_gmemcpy_blob(seq, args.op);
      break;
    }
    case Prim::kCas: {
      ++counters_.gcas;
      blob_len = stage_gcas_blob(seq, args.op);
      break;
    }
  }
  stage_meta_send(p, seq, blob_len);
  client_nic_.ring_doorbell(cc.qp_down);
}

void HyperLoopGroup::gwritev(const ExtentVec& extents, bool flush,
                             Done done) {
  assert(!stopped_ && "primitive on a stopped group");
  assert(!extents.empty());
#ifndef NDEBUG
  for (const Extent& e : extents) {
    assert(e.offset + e.len <= region_size());
  }
#endif
  Args args;
  args.op.flush = flush;
  args.extents = extents;
  submit_to(Prim::kWriteV, args, std::move(done), CasDone{});
}

void HyperLoopGroup::gflush(Done done) {
  ++counters_.gflushes;
  BackendGroup::gflush(std::move(done));
}

}  // namespace hyperloop::core
