/// \file counting_allocator.hpp
/// Global allocation counter for tests that assert a code region allocates
/// nothing: this header replaces every non-aligned operator new and delete
/// of the test binary that includes it, and each new bumps a thread_local
/// count. Include it from exactly one source file per test binary.
///
/// The nothrow forms are replaced too. Left to the runtime, a nothrow new
/// (std::stable_sort's temporary buffer, for one) would both escape the
/// count and — under AddressSanitizer, whose own operator new served it —
/// come back through the replaced delete, that is through free(), which
/// ASan reports as an alloc-dealloc mismatch.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace test {
/// Allocations made on the calling thread so far; only the delta across a
/// guarded region matters (gtest allocates freely outside them).
inline thread_local std::uint64_t t_allocations = 0;
}  // namespace test

void* operator new(std::size_t size) {
  ++test::t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++test::t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++test::t_allocations;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++test::t_allocations;
  return std::malloc(size);
}
// GCC, inlining a replaced delete next to the replaced new's malloc,
// mistakes the pair for a builtin new matched with free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
