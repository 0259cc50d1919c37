#include "nvm/nvm_device.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hyperloop::nvm {

namespace {
constexpr uint64_t kLineMask = DirtyBitmap::kLineBytes - 1;
}

NvmDevice::NvmDevice(rdma::HostMemory& mem, size_t size)
    : mem_(mem), base_(mem.alloc(size, 4096)), size_(size), durable_(size),
      dirty_(size) {
  // Watch exactly the NVM range: stores elsewhere (WQE rings, CQEs,
  // payload staging) are filtered out by HostMemory before any call.
  mem_.add_write_observer(
      base_, base_ + size_,
      [this](rdma::Addr addr, size_t len) { on_write(addr, len); });
}

rdma::Addr NvmDevice::alloc(size_t bytes, size_t align) {
  const uint64_t off = (next_ + align - 1) & ~(align - 1);
  if (off > size_ || bytes > size_ - off) {
    std::fprintf(stderr,
                 "NvmDevice exhausted: alloc of %zu bytes at offset %llu "
                 "exceeds size %zu\n",
                 bytes, static_cast<unsigned long long>(off), size_);
    std::abort();
  }
  next_ = off + bytes;
  return base_ + off;
}

void NvmDevice::on_write(rdma::Addr addr, size_t len) {
  const uint64_t begin = std::max<uint64_t>(addr, base_);
  const uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return;
  dirty_.mark(begin - base_, end - base_);
}

void NvmDevice::persist(rdma::Addr addr, uint64_t len) {
  uint64_t begin = std::max<uint64_t>(addr, base_);
  uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return;
  // CLWB semantics: flushing any byte of a line writes back the whole
  // line. Round outward so the shadow copy matches the cleared bits.
  begin = (begin - base_) & ~kLineMask;
  end = std::min<uint64_t>((end - base_ + kLineMask) & ~kLineMask, size_);
  mem_.read(base_ + begin, durable_.data() + begin, end - begin);
  dirty_.clear_range(begin, end);
}

void NvmDevice::persist_all() {
  dirty_.for_each_dirty_range([this](uint64_t b, uint64_t e) {
    mem_.read(base_ + b, durable_.data() + b, e - b);
  });
  dirty_.clear_all();
}

bool NvmDevice::is_durable(rdma::Addr addr, uint64_t len) const {
  const uint64_t begin = std::max<uint64_t>(addr, base_);
  const uint64_t end = std::min<uint64_t>(addr + len, base_ + size_);
  if (begin >= end) return true;
  return !dirty_.any_dirty(begin - base_, end - base_);
}

void NvmDevice::crash() {
  ++crashes_;
  // Revert only the dirty lines; everything else already matches the
  // durable image. restore() bypasses the write observer, so the revert
  // does not re-mark the restored lines dirty.
  dirty_.for_each_dirty_range([this](uint64_t b, uint64_t e) {
    mem_.restore(base_ + b, durable_.data() + b, e - b);
  });
  dirty_.clear_all();
}

}  // namespace hyperloop::nvm
