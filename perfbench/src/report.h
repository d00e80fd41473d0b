// What a run prints: the host/build stamp, a human-readable metric table,
// a full JSON report file, and the one-line JSON result that tools comparing
// runs read (its last line of standard output).
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct HostStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd_backend;
  std::string build_type;
  std::string version;
  std::string git_sha;
  std::string sanitizers;
  std::string failpoints;
  // A plain optimized build: no sanitizer, no failpoint sites. Results of
  // any other build must never be compared with a plain one.
  bool plain = false;

  std::string to_json() const;
};

HostStamp host_stamp();

// The names (in BENCHMARK.json order) the result line carries: the
// end-to-end set on an untraced run, the per-layer set on a traced one.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t records = 0;
  std::string span_file;  // traced runs only
};

// Prints the table and writes `report_path` (full JSON), then prints the
// result line. Returns false when a metric the result line needs is missing.
bool emit(const RunInfo& info, const HostStamp& stamp,
          const MetricTable& metrics, const Checks& checks,
          const std::string& report_path);

}  // namespace perfbench
