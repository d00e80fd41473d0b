// Small helpers shared by the benchmark's measurement files: clocks,
// order statistics, the metric table and the output-check ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// CPU time of the calling thread, in nanoseconds.
inline double thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// One reported figure: value, unit and the number of samples behind it
// (1 for counts and ratios read once). `values` keeps the per-repetition
// samples of a median, for the report file.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::vector<double> values = {};
};

// The median of per-repetition samples, keeping the samples.
inline Metric median_of(std::vector<double> values, const char* unit) {
  const double m = median(values);
  const std::size_t n = values.size();
  return {m, unit, n, std::move(values)};
}

using MetricTable = std::map<std::string, Metric>;

// The output-check ledger: every comparison against a reference counts as
// one attempt; a disagreement counts as one failure and keeps a message.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// FNV-1a 64 over a byte string, chainable.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 14695981039346656037ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace perfbench
