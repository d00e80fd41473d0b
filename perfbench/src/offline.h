// The analyst's path, as backbone_study runs it: pcap file -> read_pcap_fast
// -> core::detect_loops, serial or pipelined.
#pragma once

#include <cstdint>
#include <string>

#include "core/loop_detector.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace perfbench {

// Digest of every field of a detection result that the serial and pipelined
// paths must agree on: record counts, raw and validated streams (replica
// record indices, timestamps, TTLs), validation stats and loops.
std::uint64_t loop_digest(const rloop::core::LoopDetectionResult& result);

struct OfflineRep {
  double ns_per_record = 0;
  std::uint64_t records = 0;
  std::uint64_t digest = 0;
};

// One timed call: read the pcap, then detect_loops with `threads` threads
// (1 = serial; more = the staged pipeline with a transient workspace, as
// `backbone_study --threads` runs it). `registry`/`trace` are passed through
// to the program's config and are null on untraced runs.
OfflineRep run_offline(const std::string& pcap, unsigned threads,
                       rloop::telemetry::Registry* registry = nullptr,
                       rloop::telemetry::TraceSink* trace = nullptr);

// Worker threads of the pipelined path: min(4, nproc), at least 2.
unsigned pipelined_threads();

}  // namespace perfbench
