// Binary-wide heap-allocation counter for the zero-allocation gates
// (DESIGN.md: steady-state paths allocate nothing — enforced, not
// asserted in prose). Linking alloc_counter.cc into a test binary replaces
// the global operator new with a counting one; operator new[] and the
// nothrow forms forward to it, so they count too.
#pragma once

#include <cstdint>

namespace hyperloop {

/// Number of global operator new calls since the binary started.
uint64_t alloc_count();

}  // namespace hyperloop
