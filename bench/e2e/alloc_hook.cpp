#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace lgv::e2e {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};

void note(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool enabled) { g_counting.store(enabled, std::memory_order_relaxed); }

AllocCount alloc_count() {
  return {g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace lgv::e2e

void* operator new(std::size_t n) {
  lgv::e2e::note(n);
  return lgv::e2e::checked(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  lgv::e2e::note(n);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return lgv::e2e::checked(std::aligned_alloc(a, (n + a - 1) / a * a));
}
void* operator new[](std::size_t n, std::align_val_t align) { return ::operator new(n, align); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
