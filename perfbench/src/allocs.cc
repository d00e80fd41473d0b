#include "allocs.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

namespace perfbench {

AllocCount::AllocCount() : start_(g_allocs.load(std::memory_order_relaxed)) {
  g_counting.store(true, std::memory_order_relaxed);
}

AllocCount::~AllocCount() { g_counting.store(false, std::memory_order_relaxed); }

std::uint64_t AllocCount::count() const {
  return g_allocs.load(std::memory_order_relaxed) - start_;
}

}  // namespace perfbench

// Every form is replaced, nothrow ones included: libstdc++ allocates some
// buffers with nothrow new and releases them with plain delete.
void* operator new(std::size_t size) {
  note_alloc();
  return checked(std::malloc(size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc();
  return checked(aligned(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  note_alloc();
  return aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
