#include "alloc_counter.h"

#include <cstdlib>
#include <new>

// The replacements live in their own translation unit: when a test file
// can see a malloc-backed operator new and a free-backed operator delete
// at once, GCC pairs the inlined calls and warns -Wmismatched-new-delete.

namespace {
uint64_t g_alloc_count = 0;
}  // namespace

uint64_t hyperloop::alloc_count() { return g_alloc_count; }

void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
