#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace smartsock {

void start_counting_allocations() {
  t_allocations = 0;
  t_counting = true;
}

std::size_t stop_counting_allocations() {
  t_counting = false;
  return t_allocations;
}

}  // namespace smartsock

// Every unaligned form is replaced, so no allocation made here is released
// by a sanitizer's own operator delete. The replacements pair malloc with
// free; GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
