// One measuring run: the inputs every measurement needs, and the two kinds
// of run (end to end with tracing off, and the traced per-layer run).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "child.h"
#include "common.h"
#include "core/streaming_detector.h"
#include "daemon/daemon.h"
#include "workloads.h"

namespace perfbench {

struct RunContext {
  Workload workload = Workload::backbone2;
  std::uint64_t seed = 0;
  Scale scale = Scale::full;
  double seconds = 10;     // measuring budget after the reference pass
  std::string pcap;        // the workload's pcap, written by set-up
  std::string workdir;     // scratch space inside the checkout
  // Set-up timings, one entry per set-up repetition (see main.cc).
  std::vector<double> simulate_s;
  std::vector<double> write_pcap_s;
  // The loop-set digest pinned for (workload trace, seed), when there is one.
  std::optional<std::uint64_t> pinned_digest;

};

// setup_s and the set-up checks shared by both kinds of run.
void add_setup_metrics(const RunContext& ctx, MetricTable& metrics);

// An offline result must match the first serial result of the run and the
// pinned digest (when one is pinned).
void check_loops(const RunContext& ctx, Checks& checks, const char* path,
                 std::uint64_t digest, std::uint64_t serial_digest);

// What a daemon run is checked on: its ledger and its alerts (as a digest
// of their canonical lines, see alerts_digest()).
struct DaemonOutcome {
  std::uint64_t pushed = 0;
  std::uint64_t consumed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sampled_dropped = 0;
  std::uint64_t alerts = 0;
  std::uint64_t alerts_digest = 0;
};
DaemonOutcome outcome_of(const rloop::daemon::DaemonStats& stats,
                         const std::vector<rloop::core::LoopAlert>& alerts);

// A DaemonOutcome as child-process fields (child.h), and back.
Fields outcome_fields(const DaemonOutcome& outcome);
DaemonOutcome outcome_from(const Fields& fields);

// A daemon run must keep pushed == consumed + dropped, lose nothing, and
// raise exactly the alerts of a direct StreamingDetector feed (`reference`
// holds that feed's alert count and digest).
void check_daemon(Checks& checks, const char* path, const DaemonOutcome& run,
                  std::uint64_t records, const DaemonOutcome& reference);

// Tracing off: every end-to-end metric, with the output checks.
MetricTable measure_end_to_end(const RunContext& ctx, Checks& checks,
                               std::uint64_t* records);

// Tracing on: every per-layer metric, spans written to `span_file`.
MetricTable measure_layers(const RunContext& ctx, Checks& checks,
                           std::uint64_t* records,
                           const std::string& span_file);

}  // namespace perfbench
