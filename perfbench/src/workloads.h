// The benchmark's workloads: each is a trace generated from a seed through
// the public scenarios API, written to a pcap. The program under test only
// ever sees that pcap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/trace.h"

namespace perfbench {

enum class Workload { backbone2, loop_storm };

// "tiny" shrinks every workload to a few seconds of trace time; the
// self-test uses it to prove each path end to end in seconds.
enum class Scale { full, tiny };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);
std::optional<Scale> parse_scale(std::string_view name);

// The offered rate of the open-loop live replay, in packets per second. A
// constant of the benchmark: never derived from a measured capacity, so a
// slower daemon sees the same load and shows it as delay or drops.
inline constexpr double kOfferedPps = 400'000.0;

// Runs the workload's simulation for `seed` and returns its tap trace.
rloop::net::Trace simulate(Workload workload, std::uint64_t seed, Scale scale);

}  // namespace perfbench
