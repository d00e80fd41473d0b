#include "live.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "daemon/checkpoint.h"
#include "daemon/observability.h"
#include "daemon/packet_source.h"
#include "net/http_server.h"
#include "scenarios/scenario.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rloop::daemon::BackPressure;
using rloop::daemon::DaemonConfig;

// Offers record i at anchor + i * period, where the anchor is the wall
// clock of the first next() call. It waits (spinning, for microsecond
// precision) only until a record is due; a producer that comes back late
// gets the record at once and the lateness is recorded, so the offered
// schedule never bends to the daemon's pace.
class OpenLoopSource : public rloop::daemon::PacketSource {
 public:
  // `consumed` is the daemon's rloop_daemon_ring_consumed_total counter; its
  // value at each hand-off dates when earlier records left the ring.
  OpenLoopSource(const rloop::net::Trace* trace, double packets_per_second,
                 const rloop::telemetry::Counter* consumed)
      : trace_(trace), period_ns_(1e9 / packets_per_second),
        consumed_(consumed) {
    late_ns_.reserve(trace->size());
    consumed_at_.reserve(trace->size());
  }

  bool next(rloop::net::TraceRecord& out) override {
    if (index_ >= trace_->size()) return false;
    if (index_ == 0) anchor_ = Clock::now();
    const auto due = scheduled(index_);
    auto now = Clock::now();
    while (now < due) {
      std::this_thread::yield();
      now = Clock::now();
    }
    late_ns_.push_back(static_cast<double>(ns_between(due, now)));
    consumed_at_.push_back(consumed_->value());
    out = (*trace_)[index_++];
    return true;
  }
  std::string name() const override { return "open-loop"; }
  std::size_t expected_packets() const override { return trace_->size(); }

  Clock::time_point scheduled(std::size_t i) const {
    return anchor_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         static_cast<double>(i) * period_ns_));
  }
  const std::vector<double>& late_ns() const { return late_ns_; }

  // Delay of every record from its scheduled send to the end of the batch
  // that consumed it, dated by the first hand-off that saw the consumed
  // counter pass it (so within one inter-arrival gap); records consumed
  // after the last hand-off are dated `end`.
  std::vector<double> packet_delay_us(Clock::time_point end) const {
    std::vector<double> out;
    out.reserve(consumed_at_.size());
    std::size_t j = 0;
    for (std::size_t i = 0; i < consumed_at_.size(); ++i) {
      while (j < consumed_at_.size() && consumed_at_[j] <= i) ++j;
      const auto done =
          j < consumed_at_.size()
              ? scheduled(j) + std::chrono::nanoseconds(
                                   static_cast<std::int64_t>(late_ns_[j]))
              : end;
      out.push_back(static_cast<double>(ns_between(scheduled(i), done)) / 1e3);
    }
    return out;
  }

 private:
  const rloop::net::Trace* trace_;
  double period_ns_;
  const rloop::telemetry::Counter* consumed_;
  std::size_t index_ = 0;
  Clock::time_point anchor_{};
  std::vector<double> late_ns_;
  std::vector<std::uint64_t> consumed_at_;
};

// First record index whose timestamp is `ts` (records are time-ordered).
std::size_t index_of(const rloop::net::Trace& trace, rloop::net::TimeNs ts) {
  std::size_t lo = 0;
  std::size_t hi = trace.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (trace[mid].ts < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

std::uint64_t alerts_digest(const std::vector<rloop::core::LoopAlert>& alerts) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& a : alerts) {
    const std::string line = rloop::scenarios::render_alert(a) + "\n";
    h = fnv1a(line.data(), line.size(), h);
  }
  return h;
}

DirectFeed feed_direct(const rloop::net::Trace& trace,
                       rloop::telemetry::TraceSink* spans) {
  DirectFeed out;
  rloop::core::StreamingDetector detector(
      DaemonConfig::daemon_streaming_defaults(),
      [&](const rloop::core::LoopAlert& a) { out.alerts.push_back(a); });
  const auto t0 = Clock::now();
  {
    const rloop::telemetry::ScopedSpan span(spans, "core.streaming.on_packet",
                                            "bench");
    for (std::size_t i = 0; i < trace.size(); ++i) {
      detector.on_packet(trace[i].ts, trace[i].bytes());
    }
  }
  out.ns_per_packet = static_cast<double>(ns_between(t0, Clock::now())) /
                      static_cast<double>(std::max<std::size_t>(1, trace.size()));
  out.peak_open_entries = detector.peak_open_entries();
  return out;
}

CapacityRep run_capacity(const rloop::net::Trace& trace) {
  DaemonConfig config;
  config.use_ring = true;
  config.back_pressure = BackPressure::block;
  CapacityRep rep;
  rloop::telemetry::Registry registry;
  rloop::daemon::Daemon daemon(
      config,
      std::make_unique<rloop::daemon::ReplaySource>(&trace, "capacity", 0.0),
      [&](const rloop::core::LoopAlert& a) { rep.alerts.push_back(a); },
      &registry);
  const double c0 = thread_cpu_ns();
  const auto t0 = Clock::now();
  rep.stats = daemon.run();
  const auto t1 = Clock::now();
  const double c1 = thread_cpu_ns();
  const double n = static_cast<double>(std::max<std::size_t>(1, trace.size()));
  rep.ns_per_packet = static_cast<double>(ns_between(t0, t1)) / n;
  rep.consumer_cpu_ns_per_packet = (c1 - c0) / n;
  return rep;
}

LiveRep run_live(const rloop::net::Trace& trace, bool ops,
                 const std::string& checkpoint_dir,
                 rloop::telemetry::Registry* registry) {
  DaemonConfig config;
  config.use_ring = true;
  config.back_pressure = BackPressure::drop_newest;
  if (ops) {
    // A fresh directory per replay, or the daemon would restore the previous
    // replay's final snapshot and skip the trace.
    std::filesystem::remove_all(checkpoint_dir);
    std::filesystem::create_directories(checkpoint_dir);
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_interval = 30 * rloop::net::kSecond;  // trace time
    config.governor_enabled = true;
  }

  // The observability plane must outlive the daemon that publishes into it.
  rloop::telemetry::Registry local_registry;
  rloop::telemetry::Registry* reg = registry ? registry : &local_registry;
  rloop::daemon::ObservabilityHub hub;
  std::unique_ptr<rloop::daemon::ObservabilityServer> server;
  if (ops) {
    server = std::make_unique<rloop::daemon::ObservabilityServer>(&hub, reg);
    std::string error;
    if (!server->start(&error)) {
      throw std::runtime_error("observability server: " + error);
    }
  }

  LiveRep rep;
  std::vector<std::pair<rloop::core::LoopAlert, Clock::time_point>> fired;
  fired.reserve(4096);
  auto source = std::make_unique<OpenLoopSource>(
      &trace, kOfferedPps, reg->counter("rloop_daemon_ring_consumed_total", {},
                   "Records the detection thread drained from the ring"));
  const OpenLoopSource* offered = source.get();
  rloop::daemon::Daemon daemon(
      config, std::move(source),
      [&](const rloop::core::LoopAlert& a) {
        fired.emplace_back(a, Clock::now());
      },
      reg);
  if (ops) daemon.attach_observability(&hub);

  std::atomic<bool> stop{false};
  std::thread scraper;
  if (ops) {
    const int port = server->port();
    scraper = std::thread([&rep, &stop, port] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto next = Clock::now() + std::chrono::milliseconds(100);
        int status = 0;
        std::string body;
        std::string error;
        const auto t0 = Clock::now();
        if (rloop::net::http_get(port, "/metrics", &status, &body, &error) &&
            status == 200) {
          rep.metrics_ms.push_back(
              static_cast<double>(ns_between(t0, Clock::now())) / 1e6);
        }
        rloop::net::http_get(port, "/status", &status, &body, &error);
        while (!stop.load(std::memory_order_acquire) && Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }

  try {
    rep.stats = daemon.run();
    rep.packet_delay_us = offered->packet_delay_us(Clock::now());
  } catch (...) {
    stop.store(true, std::memory_order_release);
    if (scraper.joinable()) scraper.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  if (server) server->stop();

  for (const auto& [alert, wall] : fired) {
    const auto due = offered->scheduled(index_of(trace, alert.raised_at));
    rep.alert_delay_us.push_back(static_cast<double>(ns_between(due, wall)) /
                                 1e3);
    rep.alerts.push_back(alert);
  }
  const auto& late = offered->late_ns();
  rep.late_us.reserve(late.size());
  for (const double ns : late) rep.late_us.push_back(ns / 1e3);
  if (late.size() > 1) {
    const double span_ns =
        static_cast<double>(
            ns_between(offered->scheduled(0), offered->scheduled(late.size() - 1))) +
        late.back() - late.front();
    rep.offered_pps = static_cast<double>(late.size() - 1) / span_ns * 1e9;
  }
  rep.publish_skipped =
      hub.status_publishes_skipped() + hub.loops_publishes_skipped();

  if (ops) {
    // The cost of one checkpoint of the final state, timed from outside the
    // daemon: snapshot, then write_checkpoint_file (encode, tmp + fsync +
    // rename), as the daemon's own checkpoint does.
    const auto t0 = Clock::now();
    rloop::daemon::CheckpointState state;
    state.seq = rep.stats.checkpoints_written + 1;
    state.detector = daemon.detector().snapshot();
    std::string error;
    const bool written = rloop::daemon::write_checkpoint_file(
        checkpoint_dir + "/final", state, &error);
    rep.final_checkpoint_ms =
        static_cast<double>(ns_between(t0, Clock::now())) / 1e6;
    if (!written) throw std::runtime_error("final checkpoint: " + error);
    rep.final_checkpoint_bytes = rloop::daemon::encode_checkpoint(state).size();
  }
  return rep;
}

}  // namespace perfbench
