#include "core/remote_reader.h"

#include <utility>

namespace hyperloop::core {

uint32_t LandingRing::claim(uint32_t n) {
  assert(n > 0);
  if (claims_ == 0) {
    head_ = tail_ = 0;
    wrapped_ = false;
  }
  if (!wrapped_ && tail_ + n > cap_) {
    // No room above the newest claim: skip the tail, continue at the base.
    wrap_end_ = tail_;
    tail_ = 0;
    wrapped_ = true;
  }
  assert(tail_ + n <= (wrapped_ ? head_ : cap_) && "landing ring overrun");
  const uint32_t off = tail_;
  tail_ += n;
  ++claims_;
  return off;
}

void LandingRing::release(uint32_t n) {
  assert(claims_ > 0);
  head_ += n;
  --claims_;
  if (wrapped_ && head_ == wrap_end_) {
    head_ = 0;  // the upper claims are gone; the skipped tail frees too
    wrapped_ = false;
  }
}

RemoteReader::RemoteReader(Server& client, std::vector<Target> targets,
                           Options opts)
    : client_(client), opts_(opts) {
  assert(!targets.empty());
  assert(opts_.slots > 0 && opts_.slot_size > 0);
  assert(uint64_t{3} * opts_.slots * opts_.slot_size <= UINT32_MAX &&
         "landing ring offsets must fit 32 bits");
  endpoints_.reserve(targets.size());
  rdma::Nic& nic = client_nic();
  for (const Target& t : targets) {
    assert(t.server != nullptr);
    Endpoint ep;
    ep.server = t.server;
    ep.remote_base = t.remote_base;
    ep.rkey = t.rkey;
    ep.cq = nic.create_cq();
    ep.qp = nic.create_qp(ep.cq, nullptr, opts_.slots * 2 + 8);
    // Stub endpoint on the replica; one-sided READs only need routing.
    ep.stub = t.server->nic(opts_.nic_index).create_qp(nullptr, nullptr, 8);
    rdma::connect(ep.qp, ep.stub);
    ep.free_slots = opts_.slots;
    ep.landing = LandingRing(3 * max_read_len());
    ep.land_base = client_.mem().alloc(ep.landing.capacity(), 64);
    endpoints_.push_back(std::move(ep));
  }
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    endpoints_[i].cq->set_notify([this, i] { on_completion(i); });
    endpoints_[i].cq->arm_notify();
  }
}

RemoteReader::~RemoteReader() { stop(); }

uint32_t RemoteReader::frags_needed(const ReadVec& v, uint32_t slot_size) {
  uint32_t n = 0;
  for (const ReadExtent& e : v) {
    assert(e.len > 0);
    n += (e.len + slot_size - 1) / slot_size;
  }
  return n;
}

size_t RemoteReader::pick_replica() {
  if (opts_.policy == Policy::kHeadOnly) return 0;
  return rr_next_++ % endpoints_.size();
}

size_t RemoteReader::next_replica() { return pick_replica(); }

void RemoteReader::read(uint64_t offset, uint32_t len, ReadDone done) {
  ReadVec v;
  v.push_back(ReadExtent{offset, len});
  submit(pick_replica(), v, std::move(done));
}

void RemoteReader::read_from(size_t replica, uint64_t offset, uint32_t len,
                             ReadDone done) {
  ReadVec v;
  v.push_back(ReadExtent{offset, len});
  submit(replica, v, std::move(done));
}

void RemoteReader::readv(const ReadVec& extents, ReadDone done) {
  submit(pick_replica(), extents, std::move(done));
}

void RemoteReader::submit(size_t replica, const ReadVec& extents,
                          ReadDone done) {
  assert(!stopped_ && "read on a stopped reader");
  assert(!extents.empty());
  assert(replica < endpoints_.size());
  const uint32_t need = frags_needed(extents, opts_.slot_size);
  assert(need <= opts_.slots && "read larger than the slot credits");
  // FIFO: never jump ahead of an already-parked read.
  if (!waiting_.empty() || endpoints_[replica].free_slots < need) {
    Parked p;
    p.extents = extents;
    p.replica = static_cast<uint32_t>(replica);
    p.done = std::move(done);
    waiting_.push_back(std::move(p));
    return;
  }
  issue(replica, extents, std::move(done));
}

void RemoteReader::issue(size_t replica, const ReadVec& extents,
                         ReadDone done) {
  Endpoint& ep = endpoints_[replica];
  const uint32_t total = extents.total_len();
  const uint32_t op_idx = ops_.claim();
  ReadOp& op = ops_[op_idx];
  op.remaining = 0;
  op.len = total;
  op.land_off = ep.landing.claim(total);
  op.live = true;
  op.started = client_.loop().now();
  op.done = std::move(done);

  // Stage every fragment, then ring the doorbell once: the whole logical
  // read enters the NIC engine as one coalesced batch. Fragments land
  // back to back, so the op's bytes come out concatenated in list order.
  rdma::Addr land = ep.land_base + op.land_off;
  for (const ReadExtent& e : extents) {
    uint64_t off = e.offset;
    uint32_t left = e.len;
    while (left > 0) {
      const uint32_t flen = left < opts_.slot_size ? left : opts_.slot_size;
      assert(ep.free_slots > 0);
      --ep.free_slots;
      const uint64_t wr_id = next_wr_id_++;
      ep.pending.push_back(Frag{wr_id, op_idx});
      client_nic().stage_send(
          ep.qp, rdma::make_read(land, 0, ep.remote_base + off, ep.rkey,
                                 flen, wr_id));
      ++op.remaining;
      ++ep.frags_issued;
      ++stats_.frags_issued;
      off += flen;
      land += flen;
      left -= flen;
    }
  }
  client_nic().ring_doorbell(ep.qp);
  ++stats_.reads_issued;
  stats_.read_bytes += total;
}

void RemoteReader::replay_waiting() {
  while (!waiting_.empty()) {
    Parked& head = waiting_.front();
    const uint32_t need = frags_needed(head.extents, opts_.slot_size);
    if (endpoints_[head.replica].free_slots < need) return;
    Parked p = std::move(head);
    waiting_.pop_front();
    issue(p.replica, p.extents, std::move(p.done));
  }
}

void RemoteReader::on_completion(size_t replica) {
  Endpoint& ep = endpoints_[replica];
  rdma::Cqe cqe;
  while (ep.cq->poll(&cqe)) {
    assert(!ep.pending.empty());
    const Frag f = ep.pending.front();
    ep.pending.pop_front();
    assert(f.wr_id == cqe.wr_id && "READ completions must be FIFO");
    ++ep.free_slots;
    ReadOp& op = ops_[f.op];
    assert(op.live && op.remaining > 0);
    if (--op.remaining > 0) {
      replay_waiting();
      continue;
    }
    // Logical read complete: hand the caller a view of its landed bytes.
    // They stay claimed until the callback returns, so a read replayed
    // below or issued from inside the callback lands elsewhere.
    latency_.record(static_cast<int64_t>(client_.loop().now() - op.started));
    op.live = false;
    ReadDone done = std::move(op.done);
    // Snapshot the view before replaying: a replayed read can grow ops_
    // (invalidating `op`).
    const uint32_t len = op.len;
    const uint8_t* data = client_.mem().view(ep.land_base + op.land_off, len);
    replay_waiting();
    done(ReadView(data, len));
    ops_.release(f.op);
    ep.landing.release(len);
    if (stopped_) return;  // the callback tore the reader down
  }
  ep.cq->arm_notify();
}

void RemoteReader::stop() {
  if (stopped_) return;
  stopped_ = true;
  stats_.aborted_reads += waiting_.size();
  while (!waiting_.empty()) waiting_.pop_front();
  rdma::Nic& nic = client_nic();
  for (Endpoint& ep : endpoints_) {
    // Drop (never invoke) the callbacks of logical reads still in flight.
    while (!ep.pending.empty()) {
      const Frag f = ep.pending.front();
      ep.pending.pop_front();
      ReadOp& op = ops_[f.op];
      if (op.live) {
        op.live = false;
        op.done.reset();
        ++stats_.aborted_reads;
      }
    }
    // QPs before their CQ (destroy_cq asserts no QP still references it).
    // Response packets still in the network then drop at the NIC as
    // invalid_qp_drops.
    nic.destroy_qp(ep.qp);
    ep.server->nic(opts_.nic_index).destroy_qp(ep.stub);
    nic.destroy_cq(ep.cq);
    ep.qp = ep.stub = nullptr;
    ep.cq = nullptr;
  }
}

}  // namespace hyperloop::core
