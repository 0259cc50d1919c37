// Process-wide recycling pool for message byte buffers.
//
// The kernel-TCP baseline moves every payload through std::vector<uint8_t>
// buffers: pack, wire-frame, receive, forward. Allocating each of those per
// message makes the baseline's *host* allocator — not the modeled network
// stack — part of the measured path. The pool keeps a small LIFO freelist
// of retired vectors so steady-state traffic recycles capacity instead of
// hitting operator new (asserted by the TCP lap in nic_alloc_test).
//
// Usage: acquire(n) returns a vector of size n (reusing pooled capacity);
// release(std::move(v)) retires a buffer once its bytes are consumed. A
// dropped (never-released) buffer is only a missed recycle, not a leak.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperloop::core {

class BufPool {
 public:
  /// Returns a buffer of exactly `n` bytes (contents unspecified).
  static std::vector<uint8_t> acquire(size_t n);

  /// Retires a buffer into the freelist (dropped if the pool is full or
  /// the buffer never owned heap capacity).
  static void release(std::vector<uint8_t>&& v);

 private:
  static constexpr size_t kMaxPooled = 256;
  static std::vector<std::vector<uint8_t>>& pool();
};

}  // namespace hyperloop::core
