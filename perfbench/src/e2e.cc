// The end-to-end run: tracing off, the workload's pcap through both user
// paths, with every output checked against its reference.
#include "calib.h"
#include "child.h"
#include "live.h"
#include "net/pcap_mmap.h"
#include "offline.h"
#include "run.h"

namespace perfbench {

namespace {

// The offline paths and the capacity replay run round-robin until the
// --seconds budget is spent (at least kMinRounds rounds), so each path's
// samples spread over the whole window and a slow spell of the host lands on
// all of them alike. One serial and one pipelined call warm the heap up
// first and are not timed. The offline paths run in this process; the daemon
// paths replay the trace this process loaded, each repetition in a fresh
// child (child.h): the streaming detector's node-based tables otherwise
// fragment the heap from one repetition to the next and each runs slower.
// The capacity replay runs twice a round: its two threads hand records over
// by spinning, so its repetitions spread about twice as wide as the offline
// paths'. The live replay runs once, before the rounds: its delays follow
// the host's state by more than the bounds allow (BENCHMARK.md), so they are
// printed, not gated, and its time goes to the gated paths instead.
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 40;
constexpr int kCapacityPerRound = 2;

// One timing's repetitions, raw and scaled to the reference host speed
// measured around each (calib.h). The scaled median is the metric; the raw
// one is reported beside it as "<name>.raw".
struct Timing {
  std::vector<double> raw;
  std::vector<double> scaled;

  void add(double value, double factor) {
    raw.push_back(value);
    scaled.push_back(value / factor);
  }
  void report(MetricTable& m, const std::string& name, const char* unit) const {
    m[name] = median_of(scaled, unit);
    m[name + ".raw"] = median_of(raw, unit);
  }
};

}  // namespace

Fields outcome_fields(const DaemonOutcome& o) {
  return {{"pushed", std::to_string(o.pushed)},
          {"consumed", std::to_string(o.consumed)},
          {"dropped", std::to_string(o.dropped)},
          {"sampled_dropped", std::to_string(o.sampled_dropped)},
          {"alerts", std::to_string(o.alerts)},
          {"alerts_digest", hex64(o.alerts_digest)}};
}

DaemonOutcome outcome_from(const Fields& f) {
  DaemonOutcome o;
  o.pushed = static_cast<std::uint64_t>(number_field(f, "pushed"));
  o.consumed = static_cast<std::uint64_t>(number_field(f, "consumed"));
  o.dropped = static_cast<std::uint64_t>(number_field(f, "dropped"));
  o.sampled_dropped = static_cast<std::uint64_t>(number_field(f, "sampled_dropped"));
  o.alerts = static_cast<std::uint64_t>(number_field(f, "alerts"));
  o.alerts_digest = digest_field(f, "alerts_digest");
  return o;
}

void add_setup_metrics(const RunContext& ctx, MetricTable& metrics) {
  std::vector<double> total;
  for (std::size_t i = 0; i < ctx.simulate_s.size(); ++i) {
    total.push_back(ctx.simulate_s[i] + ctx.write_pcap_s[i]);
  }
  metrics["setup_s"] = median_of(std::move(total), "s");
}

void check_loops(const RunContext& ctx, Checks& checks, const char* path,
                 std::uint64_t digest, std::uint64_t serial_digest) {
  checks.expect(digest == serial_digest,
                std::string(path) + " loop set " + hex64(digest) +
                    " differs from serial " + hex64(serial_digest));
  if (ctx.pinned_digest) {
    checks.expect(digest == *ctx.pinned_digest,
                  std::string(path) + " loop set " + hex64(digest) +
                      " differs from pinned " + hex64(*ctx.pinned_digest));
  }
}

DaemonOutcome outcome_of(const rloop::daemon::DaemonStats& stats,
                         const std::vector<rloop::core::LoopAlert>& alerts) {
  DaemonOutcome o;
  o.pushed = stats.pushed;
  o.consumed = stats.consumed;
  o.dropped = stats.dropped;
  o.sampled_dropped = stats.sampled_dropped;
  o.alerts = alerts.size();
  o.alerts_digest = alerts_digest(alerts);
  return o;
}

void check_daemon(Checks& checks, const char* path, const DaemonOutcome& run,
                  std::uint64_t records, const DaemonOutcome& reference) {
  const std::string p(path);
  checks.expect(run.pushed == run.consumed + run.dropped,
                p + ": pushed " + std::to_string(run.pushed) +
                    " != consumed " + std::to_string(run.consumed) +
                    " + dropped " + std::to_string(run.dropped));
  // A lossless run is the precondition of the alert identity below; at the
  // benchmark's fixed offered rate a drop is a failed operation.
  checks.expect(run.consumed == records && run.sampled_dropped == 0,
                p + ": consumed " + std::to_string(run.consumed) + " of " +
                    std::to_string(records) + " records (dropped " +
                    std::to_string(run.dropped) + ", sampled out " +
                    std::to_string(run.sampled_dropped) + ")");
  checks.expect(run.alerts == reference.alerts &&
                    run.alerts_digest == reference.alerts_digest,
                p + ": " + std::to_string(run.alerts) +
                    " alerts differ from the direct feed's " +
                    std::to_string(reference.alerts));
}

MetricTable measure_end_to_end(const RunContext& ctx, Checks& checks,
                               std::uint64_t* records) {
  // Peak RSS of the analyst's process: a fresh child that reads the pcap and
  // runs serial detect_loops once, as backbone_study does.
  const ChildResult rss = run_in_child([&] {
    return Fields{{"digest", hex64(run_offline(ctx.pcap, 1).digest)}};
  });
  checks.expect(rss.ok, "serial child failed: " + rss.error);

  const rloop::net::Trace trace = rloop::net::read_pcap_fast(ctx.pcap);
  const std::uint64_t n = trace.size();
  *records = n;
  DaemonOutcome reference;
  {
    const DirectFeed direct = feed_direct(trace);
    reference.alerts = direct.alerts.size();
    reference.alerts_digest = alerts_digest(direct.alerts);
  }

  HostSpeed speed;
  Timing serial, pipelined, capacity;

  std::uint64_t serial_digest = 0;
  auto serial_rep = [&] {
    const OfflineRep rep = run_offline(ctx.pcap, 1);
    if (serial_digest == 0) serial_digest = rep.digest;
    check_loops(ctx, checks, "serial", rep.digest, serial_digest);
    return rep.ns_per_record;
  };
  auto pipelined_rep = [&] {
    const OfflineRep rep = run_offline(ctx.pcap, pipelined_threads());
    check_loops(ctx, checks, "pipelined", rep.digest, serial_digest);
    return rep.ns_per_record;
  };
  auto capacity_rep = [&] {
    const ChildResult r = run_in_child([&] {
      const CapacityRep c = run_capacity(trace);
      Fields f = outcome_fields(outcome_of(c.stats, c.alerts));
      f["ns"] = number_text(c.ns_per_packet);
      return f;
    });
    checks.expect(r.ok, "daemon capacity child failed: " + r.error);
    if (r.ok) {
      check_daemon(checks, "daemon capacity", outcome_from(r.fields), n,
                   reference);
    }
    return r;
  };
  serial_rep();
  pipelined_rep();
  // The live replay's time counts against the budget, too.
  const auto start = Clock::now();
  const char* live_path = "daemon replay";
  const ChildResult live = run_in_child([&] {
    const LiveRep l = run_live(trace, false, "");
    Fields f = outcome_fields(outcome_of(l.stats, l.alerts));
    f["p90"] = number_text(quantile(l.packet_delay_us, 0.9));
    f["p99"] = number_text(quantile(l.packet_delay_us, 0.99));
    f["alert_p50"] = number_text(quantile(l.alert_delay_us, 0.5));
    f["alert_p90"] = number_text(quantile(l.alert_delay_us, 0.9));
    return f;
  });
  checks.expect(live.ok, std::string(live_path) + " child failed: " + live.error);
  DaemonOutcome live_outcome;
  if (live.ok) {
    live_outcome = outcome_from(live.fields);
    check_daemon(checks, live_path, live_outcome, n, reference);
  }

  // A round that would end past the budget is not started (once kMinRounds
  // ran); its length is estimated by the last round.
  double last_round_s = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds && seconds_since(start) + last_round_s > ctx.seconds) {
      break;
    }
    const auto round_start = Clock::now();
    double ns = 0;
    double factor = speed.timed_factor([&] { ns = serial_rep(); });
    serial.add(ns, factor);
    factor = speed.timed_factor([&] { ns = pipelined_rep(); });
    pipelined.add(ns, factor);
    for (int i = 0; i < kCapacityPerRound; ++i) {
      ChildResult c;
      factor = speed.timed_factor([&] { c = capacity_rep(); });
      if (c.ok) capacity.add(number_field(c.fields, "ns"), factor);
    }
    last_round_s = seconds_since(round_start);
  }
  if (rss.ok) {
    check_loops(ctx, checks, "serial child", digest_field(rss.fields, "digest"),
                serial_digest);
  }

  MetricTable m;
  add_setup_metrics(ctx, m);
  serial.report(m, "serial_ns_per_record", "ns");
  pipelined.report(m, "pipelined_ns_per_record", "ns");
  capacity.report(m, "daemon_ns_per_packet", "ns");
  m["host.slowdown"] = median_of(speed.factors(), "ratio");
  if (live.ok) {
    const auto one = [&](const char* field) {
      return Metric{number_field(live.fields, field), "us", 1};
    };
    m["packet_delay_p90_us"] = one("p90");
    m["packet_delay_p99_us"] = one("p99");
    m["alert_delay_p50_us"] = one("alert_p50");
    m["alert_delay_p90_us"] = one("alert_p90");
  }
  m["drop_frac"] = {live_outcome.pushed == 0
                        ? 0.0
                        : static_cast<double>(live_outcome.dropped) /
                              static_cast<double>(live_outcome.pushed),
                    "ratio", static_cast<std::size_t>(live_outcome.pushed)};
  m["peak_rss_mb"] = {rss.peak_rss_mb, "MB", 1};
  m["peak_rss_bytes_per_record"] = {
      rss.peak_rss_mb * 1024 * 1024 / static_cast<double>(n == 0 ? 1 : n),
      "B", 1};
  return m;
}

}  // namespace perfbench
