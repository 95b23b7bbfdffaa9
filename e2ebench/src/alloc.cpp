// Counting allocator for the mem.* per-layer metrics.
//
// Replaces the global operator new/delete of this binary (the technique of
// tests/net_alloc_test.cpp), adding live-byte accounting: sizes come from
// malloc_usable_size on both sides, so allocation and release always agree.
// Counting is switched on only for traced rounds; untraced rounds pay one
// relaxed load per call.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

// GCC cross-pairs inlined std::vector allocations with the replaced global
// delete and warns; the replacements below are malloc/free-matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Per-thread tallies: a world lives and dies on one thread (campaign workers
// included), so a world's figures are differences of its own thread's.
std::atomic<bool> g_counting{false};
thread_local std::int64_t t_allocs = 0;
thread_local std::int64_t t_live = 0;
thread_local std::int64_t t_peak = 0;

void note_alloc(void* p) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  ++t_allocs;
  t_live += static_cast<std::int64_t>(malloc_usable_size(p));
  if (t_live > t_peak) t_peak = t_live;
}

void note_free(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  t_live -= static_cast<std::int64_t>(malloc_usable_size(p));
}

void* allocate(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace

namespace e2e::mem {

// Memory released while counting was off was never added (and the reverse),
// so absolute values drift across a switch; only differences within one
// counted span on one thread are reported.
void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::int64_t allocs() { return t_allocs; }
std::int64_t live_bytes() { return t_live; }
std::int64_t peak_live_bytes() { return t_peak; }
void reset_peak() { t_peak = t_live; }

}  // namespace e2e::mem

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
