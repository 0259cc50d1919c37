#include "core/buf_pool.h"

#include <utility>

namespace hyperloop::core {

std::vector<std::vector<uint8_t>>& BufPool::pool() {
  static std::vector<std::vector<uint8_t>> freelist;
  return freelist;
}

std::vector<uint8_t> BufPool::acquire(size_t n) {
  auto& freelist = pool();
  if (freelist.empty()) return std::vector<uint8_t>(n);
  std::vector<uint8_t> v = std::move(freelist.back());
  freelist.pop_back();
  // Grows (one realloc) only until capacity reaches the workload's largest
  // message, then recycles allocation-free.
  v.resize(n);
  return v;
}

void BufPool::release(std::vector<uint8_t>&& v) {
  auto& freelist = pool();
  if (v.capacity() == 0 || freelist.size() >= kMaxPooled) return;
  v.clear();
  freelist.push_back(std::move(v));
}

}  // namespace hyperloop::core
