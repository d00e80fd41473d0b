#include "report.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "telemetry/build_info.h"
#include "util/simd.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Every digit the double carries.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string HostStamp::to_json() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << json_escape(cpu_model) << "\", \"simd_backend\": \"" << simd_backend
      << "\", \"build_type\": \"" << build_type << "\", \"version\": \""
      << version << "\", \"git_sha\": \"" << git_sha
      << "\", \"sanitizers\": \"" << sanitizers << "\", \"failpoints\": \""
      << failpoints << "\", \"plain\": " << (plain ? "true" : "false") << "}";
  return out.str();
}

HostStamp host_stamp() {
  const auto& info = rloop::telemetry::build_info();
  HostStamp s;
  s.nproc = std::thread::hardware_concurrency();
  s.cpu_model = cpu_model();
  s.simd_backend = rloop::util::simd::active_backend();
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.version = info.version;
  s.git_sha = info.git_sha;
  s.sanitizers = info.sanitizers;
  s.failpoints = info.failpoints;
  s.plain = s.sanitizers == "none" && s.failpoints != "on" &&
            s.build_type == "Release";
  return s;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",
      "serial_ns_per_record",
      "pipelined_ns_per_record",
      "daemon_ns_per_packet",
      "peak_rss_bytes_per_record",
  };
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "net.read_ns_per_record",
      "core.parse_ns_per_record",
      "core.columnize_ns_per_record",
      "core.detect_ns_per_record",
      "core.detect.allocs_per_record",
      "core.validate_ns_per_record",
      "core.merge_ns_per_record",
      "core.stage_sum_ratio",
      "core.detect.replica_ratio",
      "core.detect.raw_streams",
      "core.validate.accept_ratio",
      "core.merge.loops",
      "pipeline.ingest_busy_frac",
      "pipeline.detect_busy_frac",
      "pipeline.validate_ns_per_record",
      "pipeline.merge_ns_per_record",
      "pipeline.warm_ns_per_record",
      "pipeline.warm_allocs_per_record",
      "streaming.ns_per_packet",
      "streaming.peak_open_entries",
      "streaming.alerts",
      "daemon.consumer_cpu_ns_per_packet",
      "daemon.batch_mean",
      "daemon.epoch_p99_us",
      "daemon.governor_escalations",
      "daemon.drop_frac",
      "checkpoint.ms",
      "checkpoint.bytes",
      "checkpoint.count",
      "http.metrics_ms_p50",
      "obs.publish_skipped",
      "loadgen.late_p99_us",
      "loadgen.offered_pps",
      "ops.packet_delay_p99_us",
      "ops.alert_delay_p50_us",
      "ops.alert_delay_p90_us",
      "setup.simulate_s",
      "setup.write_pcap_s",
      "trace.overhead_frac",
  };
  return names;
}

bool emit(const RunInfo& info, const HostStamp& stamp,
          const MetricTable& metrics, const Checks& checks,
          const std::string& report_path) {
  std::printf("# rloop perfbench: workload=%s seed=%llu trace=%d records=%llu\n",
              info.workload.c_str(),
              static_cast<unsigned long long>(info.seed), info.traced ? 1 : 0,
              static_cast<unsigned long long>(info.records));
  std::printf(
      "# host: nproc=%u cpu=\"%s\" simd=%s build=%s git=%s sanitizers=%s "
      "failpoints=%s plain=%s\n",
      stamp.nproc, stamp.cpu_model.c_str(), stamp.simd_backend.c_str(),
      stamp.build_type.c_str(), stamp.git_sha.c_str(), stamp.sanitizers.c_str(),
      stamp.failpoints.c_str(), stamp.plain ? "yes" : "NO");
  if (!stamp.plain) {
    std::printf("# WARNING: not a plain Release build; do not compare these "
                "figures with a plain build's\n");
  }
  for (const auto& [name, m] : metrics) {
    std::printf("%-36s %16.6f %-6s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& f : checks.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  if (!info.span_file.empty()) {
    std::printf("# spans: %s\n", info.span_file.c_str());
  }
  std::printf("# report: %s\n", report_path.c_str());

  std::ostringstream report;
  report << "{\"workload\": \"" << info.workload << "\", \"seed\": "
         << info.seed << ", \"trace\": " << (info.traced ? 1 : 0)
         << ", \"records\": " << info.records << ", \"host\": "
         << stamp.to_json() << ", \"checks\": {\"attempted\": "
         << checks.attempted << ", \"failed\": " << checks.failed
         << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    report << (i ? ", " : "") << "\"" << json_escape(checks.failures[i])
           << "\"";
  }
  report << "]}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    report << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << number(m.value) << ", \"unit\": \"" << m.unit
           << "\", \"samples\": " << m.samples;
    if (!m.values.empty()) {
      report << ", \"values\": [";
      for (std::size_t i = 0; i < m.values.size(); ++i) {
        report << (i ? ", " : "") << number(m.values[i]);
      }
      report << "]";
    }
    report << "}";
    first = false;
  }
  report << "}}\n";
  std::ofstream(report_path) << report.str();

  const auto& names = info.traced ? per_layer_names() : end_to_end_names();
  std::ostringstream line;
  line << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  bool complete = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics.find(names[i]);
    if (it == metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   names[i].c_str());
      complete = false;
      continue;
    }
    line << (i ? ", " : "") << "\"" << names[i] << "\": {\"value\": "
         << number(it->second.value) << ", \"unit\": \"" << it->second.unit
         << "\"}";
  }
  line << "}}";
  std::fflush(stdout);
  if (!complete) return false;
  std::cout << line.str() << std::endl;
  return true;
}

}  // namespace perfbench
