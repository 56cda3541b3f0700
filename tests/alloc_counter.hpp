// Counts global operator new calls. Linking alloc_counter.cpp into a
// binary replaces its global allocation functions with counting ones that
// forward to malloc/free; a binary that does not link it must not use
// allocation_count().
#pragma once

#include <cstdint>

namespace nova::testing {

/// Global operator new calls made so far by this process, on every
/// thread (array and nothrow forms included: they forward to the counted
/// operator new).
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace nova::testing
