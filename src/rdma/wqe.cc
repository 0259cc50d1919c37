#include "rdma/wqe.h"

namespace hyperloop::rdma {

Wqe make_write(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
               uint32_t len, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kWrite);
  w.d.local_addr = local;
  w.d.lkey = lkey;
  w.d.remote_addr = remote;
  w.d.rkey = rkey;
  w.d.length = len;
  w.wr_id = wr_id;
  return w;
}

Wqe make_write_imm(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
                   uint32_t len, uint32_t imm, uint64_t wr_id) {
  Wqe w = make_write(local, lkey, remote, rkey, len, wr_id);
  w.d.opcode = static_cast<uint8_t>(Opcode::kWriteImm);
  w.d.imm = imm;
  return w;
}

Wqe make_send(Addr local, uint32_t lkey, uint32_t len, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kSend);
  w.d.local_addr = local;
  w.d.lkey = lkey;
  w.d.length = len;
  w.wr_id = wr_id;
  return w;
}

Wqe make_read(Addr local, uint32_t lkey, Addr remote, uint32_t rkey,
              uint32_t len, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kRead);
  w.d.local_addr = local;
  w.d.lkey = lkey;
  w.d.remote_addr = remote;
  w.d.rkey = rkey;
  w.d.length = len;
  w.wr_id = wr_id;
  return w;
}

Wqe make_flush(Addr remote, uint32_t rkey, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kFlush);
  w.d.remote_addr = remote;
  w.d.rkey = rkey;
  w.d.length = 0;
  w.wr_id = wr_id;
  return w;
}

Wqe make_cas(Addr result, uint32_t lkey, Addr remote, uint32_t rkey,
             uint64_t compare, uint64_t swap, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kCas);
  w.d.local_addr = result;
  w.d.lkey = lkey;
  w.d.remote_addr = remote;
  w.d.rkey = rkey;
  w.d.compare = compare;
  w.d.swap = swap;
  w.d.length = 8;
  w.wr_id = wr_id;
  return w;
}

Wqe make_local_copy(Addr src, Addr dst, uint32_t len, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kLocalCopy);
  w.d.local_addr = src;
  w.d.remote_addr = dst;
  w.d.length = len;
  w.wr_id = wr_id;
  return w;
}

Wqe make_wait(uint32_t cq_id, uint64_t threshold, uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kWait);
  w.wait_cq = cq_id;
  w.wait_threshold = threshold;
  w.signaled = 0;
  w.wr_id = wr_id;
  return w;
}

Wqe make_nop(uint64_t wr_id) {
  Wqe w;
  w.d.opcode = static_cast<uint8_t>(Opcode::kNop);
  w.wr_id = wr_id;
  return w;
}

}  // namespace hyperloop::rdma
