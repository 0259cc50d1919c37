#include "rdma/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hyperloop::rdma {

ZeroPages::ZeroPages(size_t size) : size_(size) {
  // MAP_NORESERVE: an arena is sized for the experiment, not for the
  // bytes a run writes, so it reserves no swap for the untouched rest.
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    std::fprintf(stderr, "ZeroPages: mmap of %zu bytes failed: %s\n", size,
                 std::strerror(errno));
    std::abort();
  }
  data_ = static_cast<uint8_t*>(p);
#if defined(MADV_HUGEPAGE)
  madvise(p, size, MADV_HUGEPAGE);  // advisory: a no-op without THP
#endif
}

ZeroPages::~ZeroPages() { munmap(data_, size_); }

Addr HostMemory::alloc(size_t size, size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0);
  const size_t base = (next_ + align - 1) & ~(align - 1);
  if (base > bytes_.size() || size > bytes_.size() - base) {
    std::fprintf(stderr,
                 "HostMemory exhausted: alloc of %zu bytes at offset %zu "
                 "exceeds capacity %zu\n",
                 size, base, bytes_.size());
    std::abort();
  }
  next_ = base + size;
  return base;
}

void HostMemory::check(Addr addr, size_t len) const {
  assert(addr + len <= bytes_.size() && "HostMemory access out of bounds");
  (void)addr;
  (void)len;
}

void HostMemory::write(Addr addr, const void* src, size_t len) {
  if (len == 0) return;
  check(addr, len);
  // Copy-on-write: borrows over this range keep the pre-store bytes.
  borrows_.materialize_range(addr, len);
  std::memcpy(bytes_.data() + addr, src, len);
  if (watched(addr, len)) notify(addr, len);
}

void HostMemory::restore(Addr addr, const void* src, size_t len) {
  if (len == 0) return;
  check(addr, len);
  borrows_.materialize_range(addr, len);
  std::memcpy(bytes_.data() + addr, src, len);
}

void HostMemory::read(Addr addr, void* dst, size_t len) const {
  if (len == 0) return;
  check(addr, len);
  std::memcpy(dst, bytes_.data() + addr, len);
}

void HostMemory::copy(Addr dst, Addr src, size_t len) {
  if (len == 0) return;
  check(dst, len);
  check(src, len);
  borrows_.materialize_range(dst, len);
  std::memmove(bytes_.data() + dst, bytes_.data() + src, len);
  if (watched(dst, len)) notify(dst, len);
}

void HostMemory::fill(Addr addr, uint8_t value, size_t len) {
  if (len == 0) return;
  check(addr, len);
  borrows_.materialize_range(addr, len);
  std::memset(bytes_.data() + addr, value, len);
  if (watched(addr, len)) notify(addr, len);
}

void HostMemory::add_write_observer(Addr begin, Addr end,
                                    sim::SmallFn<void(Addr, size_t)> fn) {
  assert(begin < end && "observer must watch a non-empty range");
  observers_.push_back(WriteObserver{begin, end, std::move(fn)});
  watch_lo_ = std::min(watch_lo_, begin);
  watch_hi_ = std::max(watch_hi_, end);
}

void HostMemory::notify(Addr addr, size_t len) {
  for (auto& o : observers_) {
    if (addr < o.end && addr + len > o.begin) o.fn(addr, len);
  }
}

const uint8_t* HostMemory::view(Addr addr, size_t len) const {
  check(addr, len);
  return bytes_.data() + addr;
}

PayloadBuf HostMemory::borrow_payload(Addr addr, size_t len) {
  check(addr, len);
  return PayloadBuf::borrow(borrows_, bytes_.data() + addr, addr, len);
}

MemoryRegion MrTable::register_mr(Addr addr, uint64_t length, uint32_t access) {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<uint32_t>(slots_.size());
    assert(idx <= kSlotMask && "MR table exhausted");
    slots_.emplace_back();
    slots_.back().gen = 1;
  }
  Slot& s = slots_[idx];
  s.live = true;
  s.mr.addr = addr;
  s.mr.length = length;
  s.mr.access = access;
  s.mr.lkey = (s.gen << kSlotBits) | idx;
  s.mr.rkey = s.mr.lkey | kRemoteKeyBit;
  ++live_;
  return s.mr;
}

bool MrTable::deregister(uint32_t rkey) {
  if ((rkey & kRemoteKeyBit) == 0) return false;
  const uint32_t idx = rkey & kSlotMask;
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  if (!s.live || ((rkey >> kSlotBits) & kGenMask) != s.gen) return false;
  s.live = false;
  if (++s.gen > kGenMask) s.gen = 1;  // wrap, never issue generation 0
  free_.push_back(idx);
  --live_;
  return true;
}

bool MrTable::in_bounds(const MemoryRegion& mr, Addr addr, uint64_t len) {
  return addr >= mr.addr && addr + len <= mr.addr + mr.length;
}

const MemoryRegion* MrTable::lookup(uint32_t key, bool remote) const {
  if (((key & kRemoteKeyBit) != 0) != remote) return nullptr;
  const uint32_t idx = key & kSlotMask;
  if (idx >= slots_.size()) return nullptr;
  const Slot& s = slots_[idx];
  if (!s.live || ((key >> kSlotBits) & kGenMask) != s.gen) return nullptr;
  return &s.mr;
}

bool MrTable::check_remote(uint32_t rkey, Addr addr, uint64_t len,
                           uint32_t need) const {
  const MemoryRegion* mr = lookup(rkey, /*remote=*/true);
  if (mr == nullptr) return false;
  if ((mr->access & need) != need) return false;
  return in_bounds(*mr, addr, len);
}

bool MrTable::check_local(uint32_t lkey, Addr addr, uint64_t len) const {
  const MemoryRegion* mr = lookup(lkey, /*remote=*/false);
  if (mr == nullptr) return false;
  return in_bounds(*mr, addr, len);
}

}  // namespace hyperloop::rdma
