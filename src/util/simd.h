// Kept for perfbench's host stamp (perfbench/src/report.cc).
#pragma once

namespace rloop::util::simd {

inline const char* active_backend() { return "scalar"; }

}  // namespace rloop::util::simd
