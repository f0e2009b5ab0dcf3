// Allocation counter linked into bench_e2e (see alloc_hook.cpp).
#pragma once

#include <cstdint>

namespace because::bench_e2e {

/// Count operator-new calls from now on (or stop). Toggle only while no
/// other thread allocates.
void set_allocation_counting(bool on);

/// operator-new calls counted so far. Monotonic; diff around a region
/// with counting on to count its allocations.
std::uint64_t allocation_count();

}  // namespace because::bench_e2e
