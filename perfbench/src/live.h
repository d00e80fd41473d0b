// The operator's path, as rloopd runs it: records pushed through the
// daemon's SPSC ring into the StreamingDetector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/streaming_detector.h"
#include "daemon/config.h"
#include "daemon/daemon.h"
#include "net/trace.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace perfbench {

// Digest of the canonical lines (scenarios::render_alert) of an alert
// sequence, in the order the alerts were raised.
std::uint64_t alerts_digest(const std::vector<rloop::core::LoopAlert>& alerts);

// The reference: every record fed straight into a StreamingDetector with
// the daemon's streaming configuration, on the calling thread.
struct DirectFeed {
  std::vector<rloop::core::LoopAlert> alerts;
  double ns_per_packet = 0;
  std::size_t peak_open_entries = 0;
};
DirectFeed feed_direct(const rloop::net::Trace& trace,
                       rloop::telemetry::TraceSink* spans = nullptr);

// Daemon::run replaying the trace at max speed in ring mode with `block`
// back-pressure and no checkpoints: a capacity figure. The daemon reports
// into a local registry, as rloopd's always does.
struct CapacityRep {
  double ns_per_packet = 0;
  double consumer_cpu_ns_per_packet = 0;  // CLOCK_THREAD_CPUTIME_ID of run()
  rloop::daemon::DaemonStats stats;
  std::vector<rloop::core::LoopAlert> alerts;
};
CapacityRep run_capacity(const rloop::net::Trace& trace);

// The open-loop replay: a benchmark PacketSource offers each record at its
// scheduled time (record i at start + i / kOfferedPps) and never
// slows down when the daemon does; the ring drops the newest record when
// full. `ops` adds rloopd's ops setup: checkpoints every 30 s of trace time
// into `checkpoint_dir`, the overload governor, and the observability plane
// with a 10 Hz scraper of /metrics and /status. The daemon always reports
// into a registry (`registry`, or a local one), as rloopd's does.
struct LiveRep {
  std::vector<double> alert_delay_us;  // one sample per alert
  std::vector<double> packet_delay_us; // one sample per record
  std::vector<double> late_us;         // generator lateness, one per record
  double offered_pps = 0;              // measured from the hand-off times
  std::vector<double> metrics_ms;      // /metrics latency seen by the scraper
  std::uint64_t publish_skipped = 0;   // status + loops publishes skipped
  double final_checkpoint_ms = 0;      // snapshot+encode+write, final state
  std::uint64_t final_checkpoint_bytes = 0;
  rloop::daemon::DaemonStats stats;
  std::vector<rloop::core::LoopAlert> alerts;
};
LiveRep run_live(const rloop::net::Trace& trace, bool ops,
                 const std::string& checkpoint_dir,
                 rloop::telemetry::Registry* registry = nullptr);

}  // namespace perfbench
