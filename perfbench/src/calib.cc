#include "calib.h"

#include "common.h"

namespace perfbench {

namespace {
constexpr std::size_t kTableWords = std::size_t{1} << 23;  // 64 MiB
constexpr int kAccesses = 1'000'000;
}  // namespace

HostSpeed::HostSpeed() : table_(kTableWords) {
  for (std::size_t i = 0; i < kTableWords; ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
}

double HostSpeed::kernel_ms() {
  // Reads only: a write would take a copy-on-write fault per page after each
  // fork() of the end-to-end run's children, and time that instead.
  const auto t0 = Clock::now();
  std::uint64_t x = state_;
  std::uint64_t acc = 0;
  for (int i = 0; i < kAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table_[x & (kTableWords - 1)];
  }
  state_ = x;
  sink_ = acc;
  return static_cast<double>(ns_between(t0, Clock::now())) / 1e6;
}

}  // namespace perfbench
