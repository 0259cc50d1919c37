#include "core/tcp_group.h"

#include <cassert>
#include <cstddef>
#include <cstring>

#include "core/buf_pool.h"
#include "core/cpu_costs.h"

namespace hyperloop::core {

TcpReplicationGroup::TcpReplicationGroup(Server& client,
                                         std::vector<Server*> replicas,
                                         Config cfg)
    : client_(client),
      cfg_(cfg),
      window_(cfg.max_inflight, cfg.max_inflight * 2) {
  assert(!replicas.empty() && replicas.size() <= kMaxGroup);
  if (cfg_.port == 0) {
    static uint16_t next_port = 20000;
    cfg_.port = next_port++;
  }
  replicas_.resize(replicas.size());
  client_region_ = client_.nvm().alloc(cfg_.region_size, 4096);
  client_pid_ = client_.sched().create_process(client_.name() + "-tcp-cli");

  client_.tcp().listen(cfg_.port, client_pid_,
                       [this](rdma::NicId, uint16_t, std::vector<uint8_t> m) {
                         on_client_ack(std::move(m));
                       });

  for (size_t i = 0; i < replicas_.size(); ++i) {
    Replica& r = replicas_[i];
    r.server = replicas[i];
    r.data_base = r.server->nvm().alloc(cfg_.region_size, 4096);
    r.pid = r.server->sched().create_process(r.server->name() + "-tcp-repl");
    r.server->tcp().listen(
        cfg_.port, r.pid,
        [this, i](rdma::NicId, uint16_t, std::vector<uint8_t> m) {
          on_replica_message(i, std::move(m));
        });
  }
}

TcpReplicationGroup::~TcpReplicationGroup() { stop(); }

void TcpReplicationGroup::stop() {
  if (stopped_) return;
  stopped_ = true;
  aborted_ops_ += window_.abort_all();
  // No QPs/CQs to tear down: this baseline rides the kernel TCP stack.
  // Listeners stay registered but every handler early-outs on stopped_.
}

void TcpReplicationGroup::on_replica_message(size_t i,
                                             std::vector<uint8_t> msg) {
  if (stopped_) {
    BufPool::release(std::move(msg));
    return;
  }
  assert(msg.size() >= sizeof(Header));
  Header hdr;
  std::memcpy(&hdr, msg.data(), sizeof(hdr));

  Replica& r = replicas_[i];

  // Execution cost on the replica CPU (application of the command); the
  // TcpStack already charged the receive-path cost before this handler.
  sim::Duration work = cfg_.per_message_cpu;
  if (hdr.type == 1) work += cpu_copy_cost(hdr.len);
  if (hdr.flush != 0) work += cpu_persist_cost(hdr.len);

  // The whole [Header][data] buffer travels intact: apply reads the data
  // bytes in place and forward() re-sends the same vector, so a command's
  // trip down the chain allocates nothing.
  r.server->sched().submit(
      r.pid, work,
      [this, i, m = std::move(msg)]() mutable {
        if (stopped_) {
          BufPool::release(std::move(m));
          return;
        }
        Replica& rr = replicas_[i];
        rdma::HostMemory& mem = rr.server->mem();
        Header h;
        std::memcpy(&h, m.data(), sizeof(h));
        const uint8_t* data = m.data() + sizeof(Header);
        switch (h.type) {
          case 0: {  // gwrite: apply the carried bytes
            if (h.len > 0) mem.write(rr.data_base + h.offset, data, h.len);
            break;
          }
          case 1: {  // gmemcpy
            mem.copy(rr.data_base + h.dst, rr.data_base + h.offset, h.len);
            break;
          }
          case 2: {  // gcas
            if ((h.exec_mask >> i) & 1u) {
              uint64_t old = 0;
              mem.read(rr.data_base + h.offset, &old, sizeof(old));
              if (old == h.expected) {
                mem.write(rr.data_base + h.offset, &h.desired,
                          sizeof(h.desired));
              }
              // Patch the answer into the traveling message.
              std::memcpy(m.data() + offsetof(Header, result) + i * 8, &old,
                          8);
            }
            break;
          }
          default:
            assert(false);
        }
        // flush is a durability *barrier*, not a per-range hint: like the
        // RDMA path's gFLUSH (a full NIC-cache write-back), it makes every
        // previously applied command durable too. The pipeline is FIFO per
        // replica, so everything older has already been applied here —
        // this is what lets callers batch unflushed ops under one trailing
        // flushed op (e.g. the WAL's execute batch).
        if (h.flush != 0) rr.server->nvm().persist_all();
        forward(i, std::move(m));
      },
      /*fresh_wakeup=*/false);
}

void TcpReplicationGroup::forward(size_t i, std::vector<uint8_t> msg) {
  Replica& r = replicas_[i];
  if (i + 1 < replicas_.size()) {
    r.server->tcp().send(r.pid, replicas_[i + 1].server->nic().id(),
                         cfg_.port, std::move(msg));
  } else {
    // Tail ACKs the client; no need to carry the data back.
    std::vector<uint8_t> ack = BufPool::acquire(sizeof(Header));
    std::memcpy(ack.data(), msg.data(), sizeof(Header));
    BufPool::release(std::move(msg));
    r.server->tcp().send(r.pid, client_.nic().id(), cfg_.port,
                         std::move(ack));
  }
}

void TcpReplicationGroup::on_client_ack(std::vector<uint8_t> msg) {
  if (stopped_) {
    BufPool::release(std::move(msg));
    return;
  }
  assert(msg.size() >= sizeof(Header));
  Header hdr;
  std::memcpy(&hdr, msg.data(), sizeof(hdr));
  BufPool::release(std::move(msg));
  auto* slot = window_.ack(hdr.seq);
  if (slot == nullptr) return;
  window_.complete(
      *slot, [&] { return CasResult(hdr.result, replicas_.size()); },
      issuer());
}

void TcpReplicationGroup::submit(const Header& hdr, Done done,
                                 CasDone cas_done) {
  window_.submit(hdr, std::move(done), std::move(cas_done), issuer());
}

void TcpReplicationGroup::issue(Header hdr, Done done, CasDone cas_done) {
  hdr.seq = static_cast<uint32_t>(
      window_.open(std::move(done), std::move(cas_done)));

  // Frame the command directly into a pooled buffer: [Header][data].
  const uint64_t payload = hdr.type == 0 ? hdr.len : 0;
  std::vector<uint8_t> msg = BufPool::acquire(sizeof(Header) + payload);
  std::memcpy(msg.data(), &hdr, sizeof(hdr));
  if (payload > 0) {
    client_.mem().read(client_region_ + hdr.offset,
                       msg.data() + sizeof(Header),
                       static_cast<uint32_t>(hdr.len));
  }
  client_.tcp().send(client_pid_, replicas_.front().server->nic().id(),
                     cfg_.port, std::move(msg));
}

void TcpReplicationGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                                 Done done) {
  assert(offset + len <= cfg_.region_size);
  Header hdr;
  hdr.type = 0;
  hdr.flush = flush ? 1 : 0;
  hdr.offset = offset;
  hdr.len = len;
  submit(hdr, std::move(done), CasDone{});
}

void TcpReplicationGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                                  uint32_t len, bool flush, Done done) {
  assert(src_offset + len <= cfg_.region_size);
  assert(dst_offset + len <= cfg_.region_size);
  // The client's copy copies at the call, not at issue: a parked op must
  // not leave it stale (group.h).
  client_.mem().copy(client_region_ + dst_offset, client_region_ + src_offset,
                     len);
  client_.nvm().persist(client_region_ + dst_offset, len);
  Header hdr;
  hdr.type = 1;
  hdr.flush = flush ? 1 : 0;
  hdr.offset = src_offset;
  hdr.dst = dst_offset;
  hdr.len = len;
  submit(hdr, std::move(done), CasDone{});
}

void TcpReplicationGroup::gcas(uint64_t offset, uint64_t expected,
                               uint64_t desired, ExecMap exec_map,
                               CasDone done) {
  assert(offset + 8 <= cfg_.region_size);
  Header hdr;
  hdr.type = 2;
  hdr.offset = offset;
  hdr.expected = expected;
  hdr.desired = desired;
  hdr.exec_mask = exec_map.bits;
  submit(hdr, Done{}, std::move(done));
}

void TcpReplicationGroup::gflush(Done done) {
  gwrite(0, 0, /*flush=*/true, std::move(done));
}

void TcpReplicationGroup::client_store(uint64_t offset, const void* src,
                                       uint32_t len) {
  assert(offset + len <= cfg_.region_size);
  client_.mem().write(client_region_ + offset, src, len);
  client_.nvm().persist(client_region_ + offset, len);
}

void TcpReplicationGroup::client_load(uint64_t offset, void* dst,
                                      uint32_t len) const {
  client_.mem().read(client_region_ + offset, dst, len);
}

void TcpReplicationGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                       uint32_t len) const {
  const Replica& r = replicas_.at(i);
  r.server->mem().read(r.data_base + offset, dst, len);
}

sim::Duration TcpReplicationGroup::replica_cpu_time(size_t i) const {
  const Replica& r = replicas_.at(i);
  return r.server->sched().stats(r.pid).cpu_time;
}

}  // namespace hyperloop::core
