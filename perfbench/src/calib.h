// Host-speed calibration for the end-to-end timings.
//
// On a shared host the memory system's speed drifts by tens of percent
// within seconds, and every path here is memory-bound, so raw timings of
// the same code on the same input spread far wider than any regression
// worth catching. A fixed kernel of the benchmark's own - random reads over
// a 64 MiB table, the access pattern of the detector's hash tables - is
// timed right before and right after each repetition; the repetition's time
// is divided by the mean of the two over kNominalMs. The kernel is benchmark
// code, so no change to the program can move it. Over ten-seed sets, with
// raw and scaled figures taken from the same runs, scaling narrowed the
// spread of the serial, pipelined and capacity timings in 27 of 30
// (workload, timing, set) pairs, but not that of the live replay's delays,
// so only those three are scaled (perfbench/BENCHMARK.md).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  // The kernel's time on the reference host (4-vCPU Xeon VM), in ms.
  static constexpr double kNominalMs = 15.0;

  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  // Times one pass of the kernel, in ms.
  double kernel_ms();

  // Runs `rep` between two kernel passes; returns the slowdown factor
  // (kernel time / kNominalMs) and records it.
  template <typename Rep>
  double timed_factor(Rep&& rep) {
    const double before = kernel_ms();
    rep();
    const double factor = (before + kernel_ms()) / 2.0 / kNominalMs;
    factors_.push_back(factor);
    return factor;
  }

  // Slowdown factors seen so far (kernel time / kNominalMs).
  const std::vector<double>& factors() const { return factors_; }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 88172645463325252ULL;
  volatile std::uint64_t sink_ = 0;
  std::vector<double> factors_;
};

}  // namespace perfbench
