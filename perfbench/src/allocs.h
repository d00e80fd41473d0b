// Heap-allocation counting for the traced run. The benchmark binary
// replaces the global operator new (allocs.cc); it counts only between
// AllocCount's construction and count(), so untraced runs pay one relaxed
// load of an uncontended flag per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

// Counts allocations made by every thread while alive. Not reentrant: one
// counter at a time.
class AllocCount {
 public:
  AllocCount();
  ~AllocCount();
  AllocCount(const AllocCount&) = delete;
  AllocCount& operator=(const AllocCount&) = delete;

  std::uint64_t count() const;

 private:
  std::uint64_t start_;
};

}  // namespace perfbench
