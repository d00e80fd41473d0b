#include "core/streaming_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_detector.h"
#include "core/replica_key.h"
#include "reference_streaming.h"
#include "scenarios/scenario.h"
#include "telemetry/registry.h"
#include "trace_builder.h"
#include "util/random.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

struct Harness {
  std::vector<LoopAlert> alerts;
  StreamingDetector detector;

  explicit Harness(StreamingConfig cfg = {},
                   telemetry::Registry* registry = nullptr)
      : detector(
            cfg,
            [this](const LoopAlert& alert) { alerts.push_back(alert); },
            registry) {}

  void feed(const net::Trace& trace) {
    for (const auto& rec : trace.records()) {
      detector.on_packet(rec.ts, rec.bytes());
    }
  }
};

TEST(StreamingDetector, RaisesAlertAtThreshold) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(1000, dst, 60, 7, 6, 2, net::kMillisecond);
  Harness harness;
  harness.feed(builder.trace());

  ASSERT_EQ(harness.alerts.size(), 1u);
  const auto& alert = harness.alerts.front();
  EXPECT_EQ(alert.prefix24, net::Prefix::slash24(dst));
  EXPECT_EQ(alert.replicas, 3u);  // fires at min_replicas, not at the end
  EXPECT_EQ(alert.ttl_delta, 2);
  EXPECT_EQ(alert.first_seen, 1000);
  EXPECT_EQ(alert.raised_at, 1000 + 2 * net::kMillisecond);
}

TEST(StreamingDetector, NoAlertBelowThreshold) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 2, 2, 1000);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_TRUE(harness.alerts.empty());
}

TEST(StreamingDetector, NormalTrafficRaisesNothing) {
  TraceBuilder builder;
  for (int i = 0; i < 1000; ++i) {
    builder.packet(i * 1000, Ipv4Addr(203, 0, 113, 10), 64,
                   static_cast<std::uint16_t>(i));
  }
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_TRUE(harness.alerts.empty());
  EXPECT_EQ(harness.detector.packets_seen(), 1000u);
}

TEST(StreamingDetector, HolddownSuppressesRepeatAlerts) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  // Two looped packets, 1 s apart: one prefix, within the hold-down.
  builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, dst, 60, 8, 10, 2, net::kMillisecond);
  // A third after the hold-down expires.
  builder.replica_stream(2 * net::kMinute, dst, 60, 9, 10, 2,
                         net::kMillisecond);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_EQ(harness.alerts.size(), 2u);
  EXPECT_EQ(harness.detector.alerts_raised(), 2u);
}

TEST(StreamingDetector, DistinctPrefixesAlertIndependently) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 5, 2, 1000);
  builder.replica_stream(100, Ipv4Addr(198, 18, 0, 10), 60, 8, 5, 2, 1000);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_EQ(harness.alerts.size(), 2u);
}

TEST(StreamingDetector, MemoryBoundedUnderChurn) {
  StreamingConfig cfg;
  cfg.stream_timeout = net::kSecond;
  Harness harness(cfg);
  // 300k distinct packets over 300 s: table must stay near (rate x timeout)
  // = ~1000 entries plus the sweep interval, far below the packet count.
  TraceBuilder builder;
  net::TimeNs t = 0;
  std::uint16_t id = 0;
  for (int i = 0; i < 300'000; ++i) {
    builder.packet(t, Ipv4Addr(203, 0, 113, 10), 64, id++);
    t += net::kMillisecond;
    if (builder.size() >= 50'000) {
      harness.feed(builder.trace());
      builder = TraceBuilder();
      // keep timestamps increasing across chunks
      builder.packet(t, Ipv4Addr(198, 18, 0, 1), 64, id++);
      t += net::kMillisecond;
    }
  }
  harness.feed(builder.trace());
  EXPECT_LT(harness.detector.open_entries(), 50'000u);
}

TEST(StreamingDetector, TelemetryCountersMatchCallbacks) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  // Same shape as HolddownSuppressesRepeatAlerts: 2 alerts fire, every
  // other threshold crossing is suppressed by the hold-down.
  builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, dst, 60, 8, 10, 2, net::kMillisecond);
  builder.replica_stream(2 * net::kMinute, dst, 60, 9, 10, 2,
                         net::kMillisecond);

  telemetry::Registry reg;
  Harness harness({}, &reg);
  harness.feed(builder.trace());

  const auto alerts = reg.counter("rloop_streaming_alerts_total")->value();
  const auto suppressed =
      reg.counter("rloop_streaming_holddown_suppressed_total")->value();
  EXPECT_EQ(alerts, harness.alerts.size());
  EXPECT_EQ(alerts, harness.detector.alerts_raised());
  // Each 10-replica stream crosses the min_replicas=3 threshold on
  // observations 3..10 (8 crossings); every crossing either alerts or is
  // held down.
  EXPECT_EQ(alerts + suppressed, 3u * 8u);
  EXPECT_EQ(reg.counter("rloop_streaming_packets_total")->value(),
            harness.detector.packets_seen());
  EXPECT_EQ(static_cast<std::size_t>(
                reg.gauge("rloop_streaming_open_entries")->value()),
            harness.detector.open_entries());
}

// A timestamp regression is capture jitter, not a programming error: with
// zero tolerance (the default) the late packet is dropped and counted —
// never thrown. A daemon fed by real capture cannot afford an exception.
TEST(StreamingDetector, DropsBackwardsTimeInsteadOfThrowing) {
  TraceBuilder builder;
  builder.packet(1000, Ipv4Addr(203, 0, 113, 10), 64, 1);
  Harness harness;
  harness.feed(builder.trace());
  TraceBuilder earlier;
  earlier.packet(500, Ipv4Addr(203, 0, 113, 10), 64, 2);
  EXPECT_NO_THROW(harness.feed(earlier.trace()));
  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.packets_seen(), 2u);
}

// Within reorder_tolerance_ns the packet is clamped to the newest seen
// timestamp and still processed: a jittered replica keeps counting toward
// the alert threshold.
TEST(StreamingDetector, ClampsRegressionsWithinTolerance) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();
  ASSERT_EQ(records.size(), 3u);

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  // Deliver the third replica 2 ms *behind* the second: inside tolerance.
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - 2 * net::kMillisecond,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 1u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 0u);
  ASSERT_EQ(harness.alerts.size(), 1u);  // clamped replica crossed threshold
  // The clamped packet's effective timestamp is the newest seen one.
  EXPECT_EQ(harness.alerts.front().raised_at, records[1].ts);
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 1u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(), 0u);
}

TEST(StreamingDetector, DropsRegressionsBeyondTolerance) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  // 50 ms behind: beyond tolerance, dropped unprocessed.
  EXPECT_NO_THROW(harness.detector.on_packet(
      records[1].ts - 50 * net::kMillisecond, records[2].bytes()));

  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_TRUE(harness.alerts.empty());  // the dropped replica never counted
  EXPECT_EQ(harness.detector.packets_seen(), 3u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(),
            1u);
}

// Boundary: a regression of *exactly* reorder_tolerance_ns is still inside
// the window — clamped, counted as reordered, and processed. The comparison
// is strict (`last_ts - ts > tolerance` drops), so the fence post belongs to
// the clamp side.
TEST(StreamingDetector, ExactlyAtToleranceClamps) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - cfg.reorder_tolerance_ns,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 1u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 0u);
  ASSERT_EQ(harness.alerts.size(), 1u);
  EXPECT_EQ(harness.alerts.front().raised_at, records[1].ts);
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 1u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(), 0u);
}

// Boundary: one nanosecond beyond the tolerance flips the verdict from
// clamp to drop.
TEST(StreamingDetector, OneTickBeyondToleranceDrops) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - cfg.reorder_tolerance_ns - 1,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_TRUE(harness.alerts.empty());
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 0u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(),
            1u);
}

// Boundary: tolerance zero drops every regression, even by a single
// nanosecond, while an equal timestamp is not a regression at all and is
// processed normally.
TEST(StreamingDetector, ZeroToleranceDropsAllRegressions) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 4, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 0;
  Harness harness(cfg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  // Equal timestamp: ts < last_ts is false, so no regression machinery runs.
  harness.detector.on_packet(records[0].ts, records[1].bytes());
  // 1 ns behind: a regression, and with zero tolerance it is dropped.
  harness.detector.on_packet(records[0].ts - 1, records[2].bytes());
  // Far behind: also dropped.
  harness.detector.on_packet(records[0].ts - net::kSecond,
                             records[3].bytes());

  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 2u);
  EXPECT_EQ(harness.detector.packets_seen(), 4u);
  // Only the two processed replicas count: below min_replicas, no alert.
  EXPECT_TRUE(harness.alerts.empty());
}

// The hard entry budget: peak resident entries never exceed
// max_open_entries no matter how many distinct packets flood in.
TEST(StreamingDetector, EntryBudgetCapsResidentEntries) {
  StreamingConfig cfg;
  cfg.max_open_entries = 1000;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);

  TraceBuilder builder;
  net::TimeNs t = 0;
  std::uint16_t id = 0;
  for (int chunk = 0; chunk < 5; ++chunk) {
    builder = TraceBuilder();
    for (int i = 0; i < 10'000; ++i) {
      // Distinct dst + distinct id: every packet opens a fresh entry.
      builder.packet(t, Ipv4Addr(10, static_cast<std::uint8_t>(i >> 8),
                                 static_cast<std::uint8_t>(i), 1),
                     64, id++);
      t += net::kMicrosecond;
    }
    harness.feed(builder.trace());
  }

  EXPECT_LE(harness.detector.peak_open_entries(), 1000u);
  EXPECT_LE(harness.detector.open_entries(), 1000u);
  EXPECT_GT(harness.detector.evicted(), 0u);
  EXPECT_EQ(reg.counter("rloop_streaming_evicted_total")->value(),
            harness.detector.evicted());
}

// LRU-ish eviction keeps recently-touched entries: a replica stream that is
// actively counting survives budget churn from a flood of one-shot entries
// and still alerts.
TEST(StreamingDetector, ActiveStreamSurvivesBudgetChurn) {
  StreamingConfig cfg;
  cfg.max_open_entries = 500;
  Harness harness(cfg);

  TraceBuilder stream_builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  stream_builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  const auto& replicas = stream_builder.trace().records();

  TraceBuilder noise_builder;
  net::TimeNs t = 0;
  std::uint16_t id = 1000;
  for (int i = 0; i < 5'000; ++i) {
    noise_builder.packet(t, Ipv4Addr(10, static_cast<std::uint8_t>(i >> 8),
                                     static_cast<std::uint8_t>(i), 1),
                         64, id++);
    t += net::kMicrosecond;
  }
  const auto& noise = noise_builder.trace().records();

  // Interleave: one replica touch every 50 noise packets keeps the stream
  // entry recent enough to dodge the oldest-1/8 eviction sweeps.
  std::size_t r = 0;
  for (std::size_t i = 0; i < noise.size(); ++i) {
    if (i % 50 == 0 && r < replicas.size()) {
      harness.detector.on_packet(noise[i].ts, replicas[r++].bytes());
    }
    harness.detector.on_packet(noise[i].ts, noise[i].bytes());
  }

  EXPECT_GE(harness.alerts.size(), 1u)
      << "budget churn evicted an actively-counting stream";
  EXPECT_LE(harness.detector.peak_open_entries(), 500u);
}

TEST(StreamingDetector, AgreesWithOfflineOnCleanStreams) {
  // Every offline-validated loop prefix should also be alerted online.
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 10, 2, 1000);
  builder.replica_stream(net::kSecond, Ipv4Addr(198, 18, 0, 10), 100, 8, 20,
                         3, 1000);
  for (int i = 0; i < 100; ++i) {
    builder.packet(2 * net::kSecond + i * 1000, Ipv4Addr(10, 9, 8, 7), 64,
                   static_cast<std::uint16_t>(i));
  }

  const auto offline = detect_loops(builder.trace());
  Harness harness;
  harness.feed(builder.trace());

  ASSERT_EQ(offline.loops.size(), 2u);
  ASSERT_EQ(harness.alerts.size(), 2u);
  for (const auto& loop : offline.loops) {
    bool found = false;
    for (const auto& alert : harness.alerts) {
      if (alert.prefix24 == loop.prefix24) found = true;
    }
    EXPECT_TRUE(found) << loop.prefix24.to_string();
  }
}

// The timeout boundary is inclusive: a replica exactly stream_timeout after
// the entry's last touch still counts, one nanosecond later restarts the
// entry. Both tiers: the second replica meets a first sighting, the third
// a key that already has a replica.
TEST(StreamingDetector, ReplicaExactlyAtTimeoutCounts) {
  StreamingConfig cfg;
  cfg.stream_timeout = net::kMillisecond;
  for (const net::TimeNs extra : {net::TimeNs{0}, net::TimeNs{1}}) {
    SCOPED_TRACE(extra);
    TraceBuilder builder;
    builder.replica_stream(net::kSecond, Ipv4Addr(203, 0, 113, 10), 60, 7, 3,
                           2, cfg.stream_timeout + extra);
    Harness harness(cfg);
    harness.feed(builder.trace());
    EXPECT_EQ(harness.alerts.size(), extra == 0 ? 1u : 0u);
    EXPECT_EQ(harness.detector.suspect_entries().size(), extra == 0 ? 1u : 0u);
  }
}

// The alert-delay histogram sees raised alerts only: on the hold-down trace
// two alerts fire, each 2 ms after its stream's first replica, and the
// suppressed crossings in between are not observed.
TEST(StreamingDetector, AlertDelayHistogramCountsRaisedAlerts) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, dst, 60, 8, 10, 2, net::kMillisecond);
  builder.replica_stream(2 * net::kMinute, dst, 60, 9, 10, 2,
                         net::kMillisecond);
  telemetry::Registry reg;
  Harness harness({}, &reg);
  harness.feed(builder.trace());

  ASSERT_EQ(harness.alerts.size(), 2u);
  const telemetry::Histogram* delay =
      reg.histogram("rloop_streaming_alert_delay_ns", {});
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), 2u);
  EXPECT_DOUBLE_EQ(delay->sum(), 2.0 * 2 * net::kMillisecond);
}

// --- memory attribution -----------------------------------------------------

// Serializes a distinct UDP packet per index (distinct /24 and IP ID).
std::vector<std::byte> flood_packet(std::uint32_t i) {
  const auto pkt = net::make_udp_packet(
      Ipv4Addr(198, 51, 100, 1),
      Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
               static_cast<std::uint8_t>(i >> 8),
               static_cast<std::uint8_t>(i)),
      1000, 2000, 64, 64, static_cast<std::uint16_t>(i));
  std::vector<std::byte> bytes(net::kSnapLen);
  bytes.resize(net::serialize_packet(pkt, bytes));
  return bytes;
}

// A replica-free flood at one rate: the tables follow rate x timeout, so
// four times the packets reserve (almost) the same bytes.
TEST(StreamingDetector, OpenTableBytesFollowRateNotLength) {
  const auto reserved_after = [](std::uint32_t n) {
    StreamingConfig cfg;
    cfg.stream_timeout = net::kSecond;
    telemetry::Registry reg;
    StreamingDetector detector(cfg, nullptr, &reg);
    for (std::uint32_t i = 0; i < n; ++i) {
      // 10^4 packets/s: ten thousand first sightings per generation.
      detector.on_packet(static_cast<net::TimeNs>(i) * 100 * net::kMicrosecond,
                         flood_packet(i));
    }
    EXPECT_EQ(detector.alerts_raised(), 0u);
    // The gauge is refreshed at every sweep.
    EXPECT_GT(reg.gauge("rloop_streaming_open_table_bytes")->value(), 0);
    return detector.bytes_reserved();
  };
  constexpr std::uint32_t kN = 50'000;  // 5 s: five generations
  const std::size_t small = reserved_after(kN);
  const std::size_t large = reserved_after(4 * kN);
  EXPECT_LE(large * 4, small * 5) << "N: " << small << " B, 4N: " << large
                                  << " B";
}

// Under a budget of B entries, first-sighting slots are capped at two per
// budgeted entry (64 bytes each) and compacted on eviction, so a flood of
// distinct keys never holds more than 128 bytes per budgeted entry, in one
// generation or across many.
TEST(StreamingDetector, BudgetBoundsOpenTableBytes) {
  constexpr std::size_t kBudget = 1000;
  for (const net::TimeNs timeout : {10 * net::kSecond, 2 * net::kMillisecond}) {
    SCOPED_TRACE(timeout);
    StreamingConfig cfg;
    cfg.max_open_entries = kBudget;
    cfg.stream_timeout = timeout;
    StreamingDetector detector(cfg, nullptr);
    std::size_t peak_bytes = 0;
    for (std::uint32_t i = 0; i < 20 * kBudget; ++i) {
      detector.on_packet(static_cast<net::TimeNs>(i) * net::kMicrosecond,
                         flood_packet(i));
      peak_bytes = std::max(peak_bytes, detector.bytes_reserved());
    }
    EXPECT_GT(detector.evicted(), 0u);
    EXPECT_LE(detector.peak_open_entries(), kBudget);
    EXPECT_LE(peak_bytes, 128 * kBudget);
  }
}

// --- differential oracle ----------------------------------------------------
//
// StreamingDetector against the unordered_map engine it replaced
// (tests/reference_streaming.h), fed the same packets: rendered alerts,
// alert_* journal events, suspect entries and the live part of the
// snapshot must agree. Entries past the timeout are dead to both engines
// but linger for different times (until a sweep there, until a generation
// rotates out here), so snapshots compare on live entries.

std::string render(const LoopAlert& a) {
  std::ostringstream out;
  out << a.prefix24.to_string() << " first=" << a.first_seen
      << " raised=" << a.raised_at << " replicas=" << a.replicas
      << " delta=" << a.ttl_delta;
  return out.str();
}

std::string render(const telemetry::DecisionEvent& e) {
  std::ostringstream out;
  out << static_cast<int>(e.kind) << ' ' << e.dst24.to_string() << ' '
      << e.ts << ' ' << e.record_index << ' ' << e.detail << ' ' << e.detail2;
  return out.str();
}

std::vector<std::string> render(
    const std::vector<StreamingDetector::SuspectEntry>& entries) {
  std::vector<std::string> out;
  for (const auto& e : entries) {
    std::ostringstream line;
    line << e.prefix24.to_string() << ' ' << e.first_ts << ' ' << e.last_ts
         << ' ' << e.replicas << ' ' << e.ttl_delta;
    out.push_back(line.str());
  }
  return out;
}

// Every snapshot field but peak_open, with only the entries still live at
// the snapshot's last timestamp.
std::vector<std::string> render_live(const StreamingDetector::Snapshot& s,
                                     net::TimeNs stream_timeout) {
  std::vector<std::string> lines;
  std::ostringstream head;
  head << "last_ts=" << s.last_ts << " packets=" << s.packets_seen
       << " alerts=" << s.alerts_raised << " reordered=" << s.reordered
       << " reorder_dropped=" << s.reorder_dropped << " evicted=" << s.evicted
       << " sampled=" << s.sampled_dropped << " since_sweep=" << s.since_sweep;
  lines.push_back(head.str());
  for (const auto& [key, e] : s.open) {
    if (s.last_ts - e.last_ts > stream_timeout) continue;
    std::ostringstream line;
    line << std::hex << key.hash << std::dec << '/' << int{key.len} << ' '
         << e.first_ts << ' ' << e.last_ts << ' ' << int{e.last_ttl} << ' '
         << e.replicas << ' ' << e.last_delta << ' '
         << e.prefix24.to_string();
    lines.push_back(line.str());
  }
  for (const auto& [prefix, ts] : s.holddowns) {
    lines.push_back(prefix.to_string() + " held " + std::to_string(ts));
  }
  return lines;
}

// Reports the first differing line only: the rendered states run to
// thousands of lines, too many for a full diff.
void expect_same_lines(const std::vector<std::string>& got,
                       const std::vector<std::string>& want) {
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  if (g == got.end() && w == want.end()) return;
  ADD_FAILURE() << "line " << (g - got.begin()) << " of " << got.size()
                << " / " << want.size() << ": detector \""
                << (g == got.end() ? "<end>" : *g) << "\", reference \""
                << (w == want.end() ? "<end>" : *w) << '"';
}

class Differential {
 public:
  explicit Differential(StreamingConfig cfg)
      : config_(cfg),
        journal_(big_journal()),
        reference_journal_(big_journal()),
        detector_(
            cfg, [this](const LoopAlert& a) { alerts_.push_back(render(a)); },
            nullptr, &journal_),
        reference_(
            cfg,
            [this](const LoopAlert& a) {
              reference_alerts_.push_back(render(a));
            },
            &reference_journal_) {}

  void feed(net::TimeNs ts, std::span<const std::byte> bytes) {
    detector_.on_packet(ts, bytes);
    reference_.on_packet(ts, bytes);
  }

  void update_config(const StreamingConfig& cfg) {
    config_ = cfg;
    detector_.update_config(cfg);
    reference_.update_config(cfg);
  }

  void set_sample_keep_one_in(std::uint32_t n) {
    detector_.set_sample_keep_one_in(n);
    reference_.set_sample_keep_one_in(n);
  }

  // Compares the state both engines hold right now.
  void check_state(const std::string& where) {
    SCOPED_TRACE(where);
    expect_same_lines(render(detector_.suspect_entries()),
                      render(reference_.suspect_entries()));
    expect_same_lines(
        render_live(detector_.snapshot(), config_.stream_timeout),
        render_live(reference_.snapshot(), config_.stream_timeout));
  }

  // Compares everything both engines have emitted so far.
  void check_output() {
    expect_same_lines(alerts_, reference_alerts_);
    std::vector<std::string> events, reference_events;
    for (const auto& e : journal_.snapshot()) events.push_back(render(e));
    for (const auto& e : reference_journal_.snapshot()) {
      reference_events.push_back(render(e));
    }
    expect_same_lines(events, reference_events);
    EXPECT_EQ(detector_.alerts_raised(), reference_.alerts_raised());
    EXPECT_EQ(detector_.sampled_dropped(), reference_.sampled_dropped());
  }

  const std::vector<std::string>& alerts() const { return alerts_; }
  StreamingDetector& detector() { return detector_; }
  rloop::testing::ReferenceStreaming& reference() { return reference_; }

 private:
  static telemetry::DecisionLog::Options big_journal() {
    telemetry::DecisionLog::Options options;
    options.capacity = 1u << 20;
    return options;
  }

  StreamingConfig config_;
  std::vector<std::string> alerts_;
  std::vector<std::string> reference_alerts_;
  telemetry::DecisionLog journal_;
  telemetry::DecisionLog reference_journal_;
  StreamingDetector detector_;
  rloop::testing::ReferenceStreaming reference_;
};

TEST(StreamingOracle, CannedScenariosMatchTheReference) {
  for (const std::string& name : scenarios::canned_scenario_names()) {
    SCOPED_TRACE(name);
    const auto run = scenarios::run_scenario(scenarios::canned_scenario(name));
    StreamingConfig cfg = scenarios::scenario_streaming_config(run->spec);
    // The daemon's budget, which these traces never reach.
    cfg.max_open_entries = std::size_t{1} << 20;
    Differential diff(cfg);
    const net::Trace& trace = run->analysis_trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      diff.feed(trace[i].ts, trace[i].bytes());
      if ((i + 1) % 20'000 == 0) diff.check_state("record " + std::to_string(i));
    }
    diff.check_state("end");
    diff.check_output();
    if (run->spec.truth.expect_loops) {
      EXPECT_FALSE(diff.alerts().empty());
    }
  }
}

// Two IPv4/TCP captures that differ only in their last eight bytes yet
// share replica_key_hash: an FNV-1a collision found by a cycle search over
// the 8-byte tail after this fixed 32-byte prefix.
std::array<std::byte, net::kSnapLen> colliding_packet(bool second,
                                                      std::uint8_t ttl) {
  static constexpr std::uint8_t kPrefix[32] = {
      0x45, 0x00, 0x00, 0x28, 0x12, 0x34, 0x00, 0x00, 0x00, 0x06, 0x00,
      0x00, 198,  51,   100,  7,    203,  0,    113,  99,   0x04, 0x00,
      0x00, 0x50, 0,    0,    0,    1,    0,    0,    0,    0};
  const std::uint64_t tail =
      second ? 0xf4cb7f85cb705737ULL : 0x06a4b73f1f58fc85ULL;
  std::array<std::byte, net::kSnapLen> bytes{};
  for (std::size_t i = 0; i < 32; ++i) bytes[i] = std::byte{kPrefix[i]};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[32 + i] = static_cast<std::byte>((tail >> (8 * i)) & 0xff);
  }
  bytes[8] = std::byte{ttl};
  bytes[10] = std::byte{ttl};  // the checksum is masked like the TTL
  return bytes;
}

TEST(StreamingOracle, HashCollisionsNeverMergeKeys) {
  const auto a = colliding_packet(false, 60);
  const auto b = colliding_packet(true, 60);
  ASSERT_EQ(replica_key_hash(a), replica_key_hash(b));
  ASSERT_FALSE(same_replica_bytes(a, b));

  // Interleaved loops of the two packets: every replica of one is a fresh
  // TTL for the other, so a merged entry would restart or miscount.
  StreamingConfig cfg;
  cfg.alert_holddown = 1;  // every threshold crossing alerts
  Differential diff(cfg);
  net::TimeNs t = 0;
  for (int i = 0; i < 6; ++i) {
    diff.feed(t += 100, colliding_packet(false, static_cast<std::uint8_t>(60 - 2 * i)));
    diff.feed(t += 100, colliding_packet(true, static_cast<std::uint8_t>(61 - 3 * i)));
  }
  diff.check_state("interleaved");
  diff.check_output();
  EXPECT_EQ(diff.alerts().size(), 8u);  // replicas 3 to 6 of each key
  EXPECT_EQ(diff.detector().suspect_entries().size(), 2u);
}

// A random walk over a small key pool that exercises every per-key rule:
// IP-ID reuse (the pool is small), loop-sized TTL drops, drops of 0 and 1,
// TTL increases, replicas exactly T and T + 1 apart, packets at k*T - 1,
// k*T and k*T + 1 (generation boundaries), clamped and dropped reordering,
// the colliding pair above, and a stream of one-off keys that fills the
// first-sighting tables.
struct RandomTrace {
  struct Packet {
    net::TimeNs ts;
    std::array<std::byte, net::kSnapLen> bytes;
    std::size_t len;
  };
  std::vector<Packet> packets;

  RandomTrace(std::uint64_t seed, std::size_t n, net::TimeNs timeout,
              net::TimeNs tolerance) {
    util::Rng rng(seed);
    constexpr std::size_t kKeys = 48;
    std::vector<std::uint8_t> ttl(kKeys, 64);
    std::vector<net::TimeNs> seen(kKeys, 0);
    net::TimeNs t = timeout;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < 0.3) {
        // A one-off first sighting (its IP ID recurs only after many
        // timeouts).
        const auto pkt = net::make_udp_packet(
            Ipv4Addr(198, 51, 100, 2),
            Ipv4Addr(10, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                     0, 1),
            1000, 2000, 64, 64,
            static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
        Packet p{t, {}, 0};
        p.len = net::serialize_packet(pkt, p.bytes);
        packets.push_back(p);
        continue;
      }
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, kKeys - 1));
      const double mode = rng.uniform();
      int next = ttl[k];
      if (mode < 0.35) {
        next -= static_cast<int>(rng.uniform_int(2, 4));
      } else if (mode < 0.45) {
        next -= 1;
      } else if (mode < 0.55) {
        // equal TTL: a link-layer duplicate
      } else if (mode < 0.65) {
        next += static_cast<int>(rng.uniform_int(1, 5));
      } else {
        next = static_cast<int>(rng.uniform_int(20, 250));
      }
      if (next < 1 || next > 255) next = 200;
      ttl[k] = static_cast<std::uint8_t>(next);

      const double when = rng.uniform();
      if (when < 0.006) {
        t = std::max(t, seen[k] + timeout + rng.uniform_int(0, 1));
      } else if (when < 0.012) {
        t = (t / timeout + 1) * timeout + rng.uniform_int(-1, 1);
      } else {
        t += rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, timeout / 100);
      }
      net::TimeNs ts = t;
      if (rng.uniform() < 0.05) {
        ts = t - rng.uniform_int(1, 2 * tolerance);  // clamp or drop
      } else {
        seen[k] = t;
      }

      Packet p{ts, {}, 0};
      if (k < 2) {
        p.bytes = colliding_packet(k == 1, ttl[k]);
        p.len = net::kSnapLen;
      } else {
        const auto pkt = net::make_udp_packet(
            Ipv4Addr(198, 51, 100, 1),
            Ipv4Addr(203, 0, static_cast<std::uint8_t>(113 + k % 3),
                     static_cast<std::uint8_t>(k)),
            1000, 2000, 64, ttl[k], static_cast<std::uint16_t>(k % 5));
        p.len = net::serialize_packet(pkt, p.bytes);
      }
      packets.push_back(p);
    }
  }
};

// Also under a budget that never binds (the daemon's configuration): the
// budget machinery must not change anything until the budget is reached.
TEST(StreamingOracle, RandomTracesMatchTheReference) {
  constexpr net::TimeNs kTimeout = net::kMillisecond;
  StreamingConfig cfg;
  cfg.stream_timeout = kTimeout;
  cfg.alert_holddown = 5 * net::kMillisecond;
  cfg.reorder_tolerance_ns = 20 * net::kMicrosecond;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    cfg.max_open_entries = seed % 2 == 0 ? std::size_t{1} << 20 : 0;
    const RandomTrace trace(seed, 80'000, kTimeout, cfg.reorder_tolerance_ns);
    Differential diff(cfg);
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      const auto& p = trace.packets[i];
      diff.feed(p.ts, {p.bytes.data(), p.len});
      if (i % 257 == 0) diff.check_state("packet " + std::to_string(i));
    }
    diff.check_state("end");
    diff.check_output();
    EXPECT_GT(diff.alerts().size(), 10u);
    EXPECT_GT(diff.reference().reordered(), 0u);
    EXPECT_GT(diff.reference().reorder_dropped(), 0u);
  }
}

TEST(StreamingOracle, SamplingMatchesTheReference) {
  StreamingConfig cfg;
  cfg.stream_timeout = net::kMillisecond;
  cfg.alert_holddown = 5 * net::kMillisecond;
  const RandomTrace trace(7, 80'000, cfg.stream_timeout, 1);
  Differential diff(cfg);
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    if (i == 20'000) diff.set_sample_keep_one_in(3);
    if (i == 60'000) diff.set_sample_keep_one_in(0);
    const auto& p = trace.packets[i];
    diff.feed(p.ts, {p.bytes.data(), p.len});
  }
  diff.check_state("end");
  diff.check_output();
  EXPECT_GT(diff.detector().sampled_dropped(), 0u);
}

// A SIGHUP that halves and later doubles stream_timeout: live first
// sightings move into generations of the new width and stay live. The
// doubling lands right after a sweep — the reference keeps entries that
// the halved timeout killed until its next sweep, and a longer timeout
// would revive them there.
TEST(StreamingOracle, TimeoutReloadMatchesTheReference) {
  StreamingConfig cfg;
  cfg.stream_timeout = 2 * net::kMillisecond;
  cfg.alert_holddown = 5 * net::kMillisecond;
  cfg.reorder_tolerance_ns = 20 * net::kMicrosecond;
  const RandomTrace trace(11, 120'000, cfg.stream_timeout,
                          cfg.reorder_tolerance_ns);
  Differential diff(cfg);
  bool halved = false, doubled = false;
  std::size_t reloaded_at = 0;
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    if (!halved && i == 10'000) {
      cfg.stream_timeout /= 2;
      diff.update_config(cfg);
      diff.check_state("halved");
      halved = true;
      reloaded_at = i;
    }
    if (halved && !doubled && i > 40'000 &&
        diff.reference().since_sweep() == 0) {
      cfg.stream_timeout *= 2;
      diff.update_config(cfg);
      diff.check_state("doubled");
      doubled = true;
      reloaded_at = i;
    }
    const auto& p = trace.packets[i];
    diff.feed(p.ts, {p.bytes.data(), p.len});
    // Closely after each reload, where the generations change width.
    const std::size_t every = i - reloaded_at < 3'000 ? 7 : 101;
    if (i % every == 0) diff.check_state("packet " + std::to_string(i));
  }
  ASSERT_TRUE(doubled);
  diff.check_state("end");
  diff.check_output();
}

}  // namespace
}  // namespace rloop::core
