// Bump/arena allocator for per-shard detection state.
//
// The replica detector keeps first sightings in a compact table of its own
// (core/detect_state.h) and allocates a stream only for a key that has seen
// a replica: still many small, identically-sized objects (stream nodes and
// replica overflow chunks) whose lifetime all ends at the same instant (when
// the shard finishes). A general-purpose heap pays malloc/free per object
// plus per-object headers for that pattern; the arena pays one pointer bump
// per allocation and frees everything wholesale when the owning state is
// destroyed or reset().
//
// Restrictions (enforced where possible):
//  - Only trivially destructible payloads: the arena never runs destructors.
//  - No per-object free. Memory is reclaimed by destroying (or release()ing)
//    the arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/failpoint.h"

namespace rloop::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 64 ? 64 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw storage, suitably aligned. `align` must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align) {
    auto p = reinterpret_cast<std::uintptr_t>(cur_);
    std::uintptr_t aligned = (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    if (aligned + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      grow(bytes + align);
      p = reinterpret_cast<std::uintptr_t>(cur_);
      aligned = (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    }
    cur_ = reinterpret_cast<std::byte*>(aligned + bytes);
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  // Constructs one T in the arena. T must be trivially destructible — the
  // arena frees storage without running destructors.
  template <class T, class... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  // Default-initialized array of n T (uninitialized for trivial T).
  template <class T>
  T* allocate_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return ::new (allocate(sizeof(T) * n, alignof(T))) T[n];
  }

  // Payload bytes handed out (excludes alignment padding and chunk slack).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  // Bytes owned by the arena's chunks.
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t chunk_count() const { return chunks_.size(); }

  // Frees every chunk at once; the arena is reusable afterwards.
  void release() {
    chunks_.clear();
    cur_ = end_ = nullptr;
    bytes_allocated_ = 0;
    bytes_reserved_ = 0;
  }

  // Rewinds the bump pointer without returning memory to the heap: the next
  // fill reuses the reserved bytes, so steady-state reuse (the pipeline
  // workspace's per-shard detect states, reset every run) allocates nothing.
  // A fragmented arena (several chunks from incremental growth) is first
  // consolidated into one chunk of the total reserved size — one allocation,
  // after which reset() never allocates again for same-or-smaller fills.
  void reset() {
    bytes_allocated_ = 0;
    if (chunks_.empty()) return;
    if (chunks_.size() > 1) {
      const std::size_t total = bytes_reserved_;
      chunks_.clear();
      chunks_.push_back({std::make_unique<std::byte[]>(total), total});
      bytes_reserved_ = total;
    }
    cur_ = chunks_.front().data.get();
    end_ = cur_ + chunks_.front().size;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes) {
    if (RLOOP_FAILPOINT("arena.alloc")) throw std::bad_alloc();
    // Oversized requests get a chunk of their own size; either way the new
    // chunk becomes the bump area (the old chunk's slack is abandoned, which
    // wastes at most one object's worth of bytes per chunk).
    const std::size_t size = min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
    chunks_.push_back({std::make_unique<std::byte[]>(size), size});
    bytes_reserved_ += size;
    cur_ = chunks_.back().data.get();
    end_ = cur_ + size;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace rloop::util
