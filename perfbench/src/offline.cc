#include "offline.h"

#include <algorithm>
#include <thread>

#include "common.h"
#include "net/pcap_mmap.h"

namespace perfbench {

namespace {

template <typename T>
std::uint64_t mix(std::uint64_t h, const T& value) {
  return fnv1a(&value, sizeof(value), h);
}

std::uint64_t mix_streams(std::uint64_t h,
                          const std::vector<rloop::core::ReplicaStream>& streams) {
  h = mix(h, streams.size());
  for (const auto& s : streams) {
    h = mix(h, s.dst.value);
    h = mix(h, s.dst24.addr.value);
    h = mix(h, s.replicas.size());
    for (const auto& r : s.replicas) {
      h = mix(h, r.record_index);
      h = mix(h, r.ts);
      h = mix(h, r.ttl);
    }
  }
  return h;
}

}  // namespace

std::uint64_t loop_digest(const rloop::core::LoopDetectionResult& result) {
  std::uint64_t h = fnv1a(nullptr, 0);
  h = mix(h, result.total_records);
  h = mix(h, result.parse_failures);
  h = mix_streams(h, result.raw_streams);
  h = mix_streams(h, result.valid_streams);
  h = mix(h, result.validation.input_streams);
  h = mix(h, result.validation.rejected_too_small);
  h = mix(h, result.validation.rejected_prefix_conflict);
  h = mix(h, result.validation.accepted);
  h = mix(h, result.loops.size());
  for (const auto& loop : result.loops) {
    h = mix(h, loop.prefix24.addr.value);
    h = mix(h, loop.prefix24.len);
    h = mix(h, loop.start);
    h = mix(h, loop.end);
    h = mix(h, loop.replica_count);
    h = mix(h, loop.ttl_delta);
    h = mix(h, loop.stream_indices.size());
    for (const auto idx : loop.stream_indices) h = mix(h, idx);
  }
  return h;
}

OfflineRep run_offline(const std::string& pcap, unsigned threads,
                       rloop::telemetry::Registry* registry,
                       rloop::telemetry::TraceSink* trace) {
  rloop::core::LoopDetectorConfig config;
  config.parallel.num_threads = threads;
  config.registry = registry;
  config.trace = trace;

  const auto t0 = Clock::now();
  rloop::net::Trace input;
  {
    const rloop::telemetry::ScopedSpan span(trace, "net.read_pcap_fast", "bench");
    input = rloop::net::read_pcap_fast(pcap, registry);
  }
  const auto result = rloop::core::detect_loops(input, config);
  const auto t1 = Clock::now();

  OfflineRep rep;
  rep.records = input.size();
  rep.ns_per_record = static_cast<double>(ns_between(t0, t1)) /
                      static_cast<double>(std::max<std::size_t>(1, input.size()));
  rep.digest = loop_digest(result);
  return rep;
}

unsigned pipelined_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(2u, std::min(4u, hw));
}

}  // namespace perfbench
