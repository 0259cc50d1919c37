#include "rdma/payload_buf.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>

namespace hyperloop::rdma {

namespace {

// Size classes are powers of two from 64B up to 1GiB. Class i holds
// blocks of 64 << i payload bytes.
constexpr size_t kMinClassBytes = 64;
constexpr int kNumClasses = 25;

struct Pool {
  void* free_heads[kNumClasses] = {};
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t free_blocks = 0;
  uint64_t bytes_copied = 0;
};

Pool& pool() {
  static Pool p;
  return p;
}

int class_for(size_t n) {
  const size_t cap = n <= kMinClassBytes ? kMinClassBytes : std::bit_ceil(n);
  const int cls = std::countr_zero(cap) - std::countr_zero(kMinClassBytes);
  return cls;
}

size_t class_bytes(int cls) { return kMinClassBytes << cls; }

}  // namespace

PayloadBuf::Block* PayloadBuf::acquire(size_t n) {
  Pool& p = pool();
  const int cls = class_for(n);
  Block* b;
  if (p.free_heads[cls] != nullptr) {
    b = static_cast<Block*>(p.free_heads[cls]);
    p.free_heads[cls] = b->next_free;
    --p.free_blocks;
    ++p.hits;
  } else {
    b = static_cast<Block*>(
        ::operator new(sizeof(Block) + class_bytes(cls)));
    ++p.misses;
  }
  b->refs = 1;
  b->size = static_cast<uint32_t>(n);
  b->size_class = static_cast<uint8_t>(cls);
  b->next_free = nullptr;
  b->ext = nullptr;
  b->ext_addr = 0;
  b->borrow_next = nullptr;
  b->borrow_prev = nullptr;
  b->registry = nullptr;
  return b;
}

void PayloadBuf::release_block(Block* b) {
  if (--b->refs != 0) return;
  // A borrowed block going back to the pool just leaves the registry —
  // nobody can read it anymore, so no bytes need to move.
  if (b->ext != nullptr) unlink_borrow(b);
  Pool& p = pool();
  b->next_free = static_cast<Block*>(p.free_heads[b->size_class]);
  p.free_heads[b->size_class] = b;
  ++p.free_blocks;
}

void PayloadBuf::resize(size_t n) {
  resize_uninit(n);
  if (b_ != nullptr) std::memset(block_data(b_), 0, n);
}

void PayloadBuf::resize_uninit(size_t n) {
  release();
  if (n == 0) return;
  b_ = acquire(n);
}

PayloadBuf PayloadBuf::borrow(BorrowRegistry& reg, const uint8_t* src,
                              uint64_t addr, size_t len) {
  PayloadBuf v;
  if (len == 0) return v;
  Block* b = acquire(len);  // own storage reserved for materialization
  b->ext = src;
  b->ext_addr = addr;
  b->registry = &reg;
  b->borrow_next = reg.head_;
  b->borrow_prev = nullptr;
  if (reg.head_ != nullptr) reg.head_->borrow_prev = b;
  reg.head_ = b;
  if (addr < reg.lo_) reg.lo_ = addr;
  if (addr + len > reg.hi_) reg.hi_ = addr + len;
  v.b_ = b;
  return v;
}

void PayloadBuf::materialize(Block* b) {
  std::memcpy(block_data(b), b->ext, b->size);
  pool().bytes_copied += b->size;
  unlink_borrow(b);
}

void PayloadBuf::unlink_borrow(Block* b) {
  BorrowRegistry* reg = b->registry;
  if (b->borrow_prev != nullptr) {
    b->borrow_prev->borrow_next = b->borrow_next;
  } else {
    reg->head_ = b->borrow_next;
  }
  if (b->borrow_next != nullptr) b->borrow_next->borrow_prev = b->borrow_prev;
  b->ext = nullptr;
  b->borrow_next = nullptr;
  b->borrow_prev = nullptr;
  b->registry = nullptr;
  if (reg->head_ == nullptr) {
    reg->lo_ = ~uint64_t{0};
    reg->hi_ = 0;
  }
}

void PayloadBuf::BorrowRegistry::materialize_overlapping(uint64_t addr,
                                                         size_t len) {
  Block* b = head_;
  while (b != nullptr) {
    Block* next = b->borrow_next;
    if (addr < b->ext_addr + b->size && addr + len > b->ext_addr) {
      materialize(b);
    }
    b = next;
  }
}

void PayloadBuf::BorrowRegistry::materialize_all() {
  while (head_ != nullptr) materialize(head_);
}

size_t PayloadBuf::BorrowRegistry::live() const {
  size_t n = 0;
  for (const Block* b = head_; b != nullptr; b = b->borrow_next) ++n;
  return n;
}

uint64_t PayloadBuf::pool_misses() { return pool().misses; }
uint64_t PayloadBuf::pool_hits() { return pool().hits; }
size_t PayloadBuf::pool_free_blocks() { return pool().free_blocks; }

uint64_t PayloadBuf::bytes_copied() { return pool().bytes_copied; }
void PayloadBuf::add_bytes_copied(uint64_t n) { pool().bytes_copied += n; }

}  // namespace hyperloop::rdma
