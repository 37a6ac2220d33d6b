#pragma once
// Allocation tally of the calling thread. perfbench_traced links a
// counting operator new/delete (alloc_count.cpp); the timed perfbench
// links alloc_none.cpp, whose tally stays zero, so timed runs carry no
// allocation hook.

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Operator-new calls and bytes requested on this thread so far.
[[nodiscard]] AllocTally thread_alloc_tally();

/// True in perfbench_traced, the binary that counts allocations; the
/// runners make their traced run there and their timed run elsewhere.
[[nodiscard]] bool alloc_counting();

}  // namespace perfbench
