// Counting replacements of the global allocation functions: each thread
// tallies its own operator-new calls and requested bytes, then forwards to
// malloc. Linked into perfbench_traced only.
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted(std::size_t n) {
  ++t_calls;
  t_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  ++t_calls;
  t_bytes += n;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

AllocTally thread_alloc_tally() { return {t_calls, t_bytes}; }
bool alloc_counting() { return true; }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
