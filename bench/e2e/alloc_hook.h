// Heap-allocation counter behind core.step.allocs_per_tick: alloc_hook.cpp
// replaces the global operator new of the bench_e2e binary (and nothing
// else). Counting is off until a pass enables it, so the timed pass pays one
// relaxed load per allocation.
#pragma once

#include <cstdint>

namespace lgv::e2e {

struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

void set_alloc_counting(bool enabled);
/// Allocations counted so far, on every thread.
AllocCount alloc_count();

}  // namespace lgv::e2e
