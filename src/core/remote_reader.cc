#include "core/remote_reader.h"

#include <utility>

namespace hyperloop::core {

uint32_t RemoteReader::landing_offset(uint32_t oldest, uint32_t newest_off,
                                      uint32_t newest_end, uint32_t n,
                                      uint32_t cap) {
  assert(n > 0);
  if (newest_off < oldest) {  // wrapped: fill the gap below the oldest
    assert(newest_end + n <= oldest && "landing ring overrun");
    return newest_end;
  }
  if (newest_end + n <= cap) return newest_end;
  // No room above the newest read: skip the tail, continue at the base.
  assert(n <= oldest && "landing ring overrun");
  return 0;
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
    ep.land_base = client_.mem().alloc(3 * max_read_len(), 64);
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
  ReadOp op;
  op.seq = stats_.reads_issued++;
  op.len = extents.total_len();
  if (!ep.reads.empty()) {
    const ReadOp& newest = ep.reads[ep.reads.size() - 1];
    op.land_off = landing_offset(ep.reads.front().land_off, newest.land_off,
                                 newest.land_off + newest.len, op.len,
                                 3 * max_read_len());
  }
  stats_.read_bytes += op.len;

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
      client_nic().stage_send(
          ep.qp, rdma::make_read(land, 0, ep.remote_base + off, ep.rkey,
                                 flen, op.seq));
      ++op.remaining;
      ++ep.frags_issued;
      ++stats_.frags_issued;
      off += flen;
      land += flen;
      left -= flen;
    }
  }
  op.done = std::move(done);
  ep.reads.push_back(std::move(op));
  client_nic().ring_doorbell(ep.qp);
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
    ReadOp& op = ep.reads.front();
    assert(cqe.wr_id == op.seq && op.remaining > 0 &&
           "READ completions must be FIFO");
    ++ep.free_slots;
    if (--op.remaining > 0) {
      replay_waiting();
      continue;
    }
    // Logical read complete: hand the caller a view of its landed bytes.
    // The read stays queued until the callback returns, so a read
    // replayed below or issued from inside the callback lands elsewhere.
    // Snapshot the view before replaying: a replayed read can grow the
    // queue (invalidating `op`).
    ReadDone done = std::move(op.done);
    const uint32_t len = op.len;
    const uint8_t* data = client_.mem().view(ep.land_base + op.land_off, len);
    replay_waiting();
    done(ReadView(data, len));
    if (stopped_) return;  // the callback tore the reader down
    ep.reads.pop_front();
  }
  ep.cq->arm_notify();
}

void RemoteReader::stop() {
  if (stopped_) return;
  stopped_ = true;
  stats_.aborted_reads += waiting_.size();
  waiting_.clear();
  rdma::Nic& nic = client_nic();
  for (Endpoint& ep : endpoints_) {
    // Drop (never invoke) the callbacks of logical reads still in flight;
    // one whose callback is running has none left.
    for (size_t i = 0; i < ep.reads.size(); ++i) {
      if (ep.reads[i].remaining > 0) ++stats_.aborted_reads;
    }
    ep.reads.clear();
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
