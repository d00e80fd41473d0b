// The traced run: times the calls into each layer's public functions from
// here, records a span around each (telemetry::TraceSink, kept in memory,
// written at exit), and reads the counters the program keeps in a
// telemetry::Registry passed in through its public config.
#include <fstream>
#include <stdexcept>

#include "allocs.h"
#include "core/loop_detector.h"
#include "core/pipeline.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "live.h"
#include "net/pcap_mmap.h"
#include "offline.h"
#include "run.h"
#include "telemetry/quantiles.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace {

using rloop::telemetry::MetricSnapshot;
using rloop::telemetry::Registry;
using rloop::telemetry::ScopedSpan;
using rloop::telemetry::TraceSink;

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 20;

double per(double ns, std::uint64_t n) {
  return ns / static_cast<double>(n == 0 ? 1 : n);
}

// Wall time of `fn` in ns, inside a span named `name`.
template <typename Fn>
double timed(TraceSink* sink, const char* name, Fn&& fn) {
  const ScopedSpan span(sink, name, "bench");
  const auto t0 = Clock::now();
  fn();
  return static_cast<double>(ns_between(t0, Clock::now()));
}

// Sum over every series of `name` whose labels include `label`=`value`
// (counters: value; histograms: sum).
double registry_sum(const Registry& registry, const std::string& name,
                    const std::string& label = "",
                    const std::string& value = "") {
  double total = 0;
  for (const MetricSnapshot& s : registry.snapshot()) {
    if (s.name != name) continue;
    bool match = label.empty();
    for (const auto& [k, v] : s.labels) {
      if (k == label && v == value) match = true;
    }
    if (!match) continue;
    total += s.type == rloop::telemetry::MetricType::histogram ? s.sum
                                                               : s.value;
  }
  return total;
}

double registry_quantile(const Registry& registry, const std::string& name,
                         double q) {
  for (const MetricSnapshot& s : registry.snapshot()) {
    if (s.name == name && s.count > 0) {
      return rloop::telemetry::estimate_quantile(s.bounds, s.buckets, q);
    }
  }
  return 0.0;
}

struct Series {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  Metric metric(const char* unit) const { return median_of(v, unit); }
};

}  // namespace

MetricTable measure_layers(const RunContext& ctx, Checks& checks,
                           std::uint64_t* records,
                           const std::string& span_file) {
  TraceSink sink;
  const rloop::core::LoopDetectorConfig config;  // serial, default stages
  const unsigned threads = pipelined_threads();

  const rloop::net::Trace trace = rloop::net::read_pcap_fast(ctx.pcap);
  const std::uint64_t n = trace.size();
  *records = n;
  DaemonOutcome reference;

  Series read, parse, columnize, detect, detect_allocs, validate, merge;
  Series serial_detect_loops, e2e_plain, e2e_traced;
  Series warm, warm_allocs, streaming, consumer_cpu, batch_mean;
  double replica_ratio = 0, raw_streams = 0, accept_ratio = 0, loops = 0;
  double peak_open = 0, alerts = 0;
  std::uint64_t serial_digest = 0;

  // Pipelined calls report into one registry; its stage counters accumulate
  // over the run and are divided by the records they covered.
  Registry pipeline_registry;
  std::uint64_t pipeline_records = 0;

  // The old parallel4 figure: one persistent workspace, one warm-up call.
  rloop::core::PipelineWorkspace workspace;
  rloop::core::LoopDetectorConfig warm_config;
  warm_config.parallel.num_threads = threads;
  warm_config.workspace = &workspace;
  rloop::core::detect_loops(trace, warm_config);

  const auto start = Clock::now();
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds && seconds_since(start) >= ctx.seconds) break;
    const ScopedSpan round_span(&sink, "round", "bench");

    // net + core, one public call per layer, and the whole serial call for
    // the stage-sum check. Each leaves nothing allocated behind, and the two
    // alternate in order from round to round, so neither always inherits
    // the other's freed heap.
    rloop::net::Trace input;
    read.add(per(timed(&sink, "net.read_pcap_fast",
                       [&] { input = rloop::net::read_pcap_fast(ctx.pcap); }),
                 n));
    std::size_t layer_loops = 0;
    std::size_t layer_raw = 0;
    const auto by_layer = [&] {
      std::vector<rloop::core::ParsedRecord> parsed;
      parse.add(per(timed(&sink, "core.parse_trace",
                          [&] { parsed = rloop::core::parse_trace(input); }),
                    n));
      rloop::core::RecordStore store;
      columnize.add(per(
          timed(&sink, "core.RecordStore::build",
                [&] { store = rloop::core::RecordStore::build(input, parsed); }),
          n));
      std::vector<rloop::core::ReplicaStream> raw;
      std::uint64_t allocs = 0;
      detect.add(per(timed(&sink, "core.ReplicaDetector::detect",
                           [&] {
                             const AllocCount counter;
                             raw = rloop::core::ReplicaDetector(config.detector)
                                       .detect(store);
                             allocs = counter.count();
                           }),
                     n));
      detect_allocs.add(per(static_cast<double>(allocs), n));
      std::vector<rloop::core::ReplicaStream> valid;
      rloop::core::ValidationStats vstats;
      validate.add(per(timed(&sink, "core.StreamValidator::validate",
                             [&] {
                               valid = rloop::core::StreamValidator(
                                           config.validator)
                                           .validate(store, raw, &vstats);
                             }),
                       n));
      std::vector<rloop::core::RoutingLoop> merged;
      merge.add(per(timed(&sink, "core.StreamMerger::merge",
                          [&] {
                            merged = rloop::core::StreamMerger(config.merger)
                                         .merge(store, valid);
                          }),
                    n));
      std::uint64_t replica_records = 0;
      for (const auto& s : raw) replica_records += s.size();
      replica_ratio = per(static_cast<double>(replica_records), n);
      raw_streams = static_cast<double>(raw.size());
      accept_ratio = vstats.input_streams == 0
                         ? 0.0
                         : static_cast<double>(vstats.accepted) /
                               static_cast<double>(vstats.input_streams);
      loops = static_cast<double>(merged.size());
      layer_loops = merged.size();
      layer_raw = raw.size();
    };
    std::size_t whole_loops = 0;
    std::size_t whole_raw = 0;
    const auto whole_call = [&] {
      rloop::core::LoopDetectionResult whole;
      serial_detect_loops.add(
          per(timed(&sink, "core.detect_loops",
                    [&] { whole = rloop::core::detect_loops(input, config); }),
              n));
      whole_loops = whole.loops.size();
      whole_raw = whole.raw_streams.size();
    };
    if (round % 2 == 0) {
      by_layer();
      whole_call();
    } else {
      whole_call();
      by_layer();
    }
    checks.expect(whole_loops == layer_loops && whole_raw == layer_raw,
                  "layer-by-layer calls disagree with detect_loops");

    // Tracing cost: the end-to-end serial figure without and with the
    // program's own instrumentation (registry + span sink) switched on, in
    // alternating order.
    const auto plain_call = [&] {
      const OfflineRep plain = run_offline(ctx.pcap, 1);
      if (serial_digest == 0) serial_digest = plain.digest;
      check_loops(ctx, checks, "serial", plain.digest, serial_digest);
      e2e_plain.add(plain.ns_per_record);
    };
    const auto traced_call = [&] {
      Registry traced_registry;
      TraceSink traced_sink;
      const OfflineRep traced =
          run_offline(ctx.pcap, 1, &traced_registry, &traced_sink);
      if (serial_digest == 0) serial_digest = traced.digest;
      check_loops(ctx, checks, "serial traced", traced.digest, serial_digest);
      e2e_traced.add(traced.ns_per_record);
    };
    if (round % 2 == 0) {
      plain_call();
      traced_call();
    } else {
      traced_call();
      plain_call();
    }

    // The staged pipeline, cold (transient workspace) and warm.
    {
      const ScopedSpan span(&sink, "core.detect_loops pipelined", "bench");
      const OfflineRep p =
          run_offline(ctx.pcap, threads, &pipeline_registry, nullptr);
      check_loops(ctx, checks, "pipelined", p.digest, serial_digest);
      pipeline_records += p.records;
    }
    rloop::core::LoopDetectionResult warm_result;
    std::uint64_t warm_count = 0;
    warm.add(per(timed(&sink, "core.detect_loops warm",
                       [&] {
                         const AllocCount counter;
                         warm_result =
                             rloop::core::detect_loops(input, warm_config);
                         warm_count = counter.count();
                       }),
                 n));
    warm_allocs.add(per(static_cast<double>(warm_count), n));
    check_loops(ctx, checks, "pipelined warm", loop_digest(warm_result),
                serial_digest);

    // Streaming detector fed directly, then the daemon at capacity.
    const DirectFeed direct = feed_direct(input, &sink);
    streaming.add(direct.ns_per_packet);
    peak_open = static_cast<double>(direct.peak_open_entries);
    alerts = static_cast<double>(direct.alerts.size());
    const std::uint64_t direct_digest = alerts_digest(direct.alerts);
    if (round == 0) {
      reference.alerts = direct.alerts.size();
      reference.alerts_digest = direct_digest;
    }
    checks.expect(direct_digest == reference.alerts_digest,
                  "direct streaming feed is not deterministic");
    {
      // In a fresh child, as the end-to-end run measures it.
      const ScopedSpan span(&sink, "daemon.run capacity", "bench");
      const ChildResult r = run_in_child([&] {
        const CapacityRep c = run_capacity(trace);
        Fields f = outcome_fields(outcome_of(c.stats, c.alerts));
        f["cpu_ns"] = number_text(c.consumer_cpu_ns_per_packet);
        f["batch_mean"] = number_text(
            c.stats.epochs == 0 ? 0.0
                                : static_cast<double>(c.stats.consumed) /
                                      static_cast<double>(c.stats.epochs));
        return f;
      });
      checks.expect(r.ok, "daemon capacity child failed: " + r.error);
      if (r.ok) {
        check_daemon(checks, "daemon capacity", outcome_from(r.fields), n,
                     reference);
        consumer_cpu.add(number_field(r.fields, "cpu_ns"));
        batch_mean.add(number_field(r.fields, "batch_mean"));
      }
    }
  }

  // One replay into rloopd's ops setup: ring, checkpoints, governor and the
  // HTTP plane, with the registry the /metrics endpoint serves.
  Registry live_registry;
  LiveRep live;
  {
    const ScopedSpan span(&sink, "daemon.run open-loop ops", "bench");
    live = run_live(trace, true, ctx.workdir + "/ckpt", &live_registry);
  }
  check_daemon(checks, "daemon ops replay", outcome_of(live.stats, live.alerts),
               n, reference);

  MetricTable m;
  m["net.read_ns_per_record"] = read.metric("ns");
  m["core.parse_ns_per_record"] = parse.metric("ns");
  m["core.columnize_ns_per_record"] = columnize.metric("ns");
  m["core.detect_ns_per_record"] = detect.metric("ns");
  m["core.detect.allocs_per_record"] = detect_allocs.metric("count");
  m["core.validate_ns_per_record"] = validate.metric("ns");
  m["core.merge_ns_per_record"] = merge.metric("ns");
  const double stage_sum = median(read.v) + median(parse.v) +
                           median(columnize.v) + median(detect.v) +
                           median(validate.v) + median(merge.v);
  m["core.stage_sum_ratio"] = {
      stage_sum / (median(read.v) + median(serial_detect_loops.v)), "ratio",
      read.v.size()};
  m["core.detect.replica_ratio"] = {replica_ratio, "ratio", 1};
  m["core.detect.raw_streams"] = {raw_streams, "count", 1};
  m["core.validate.accept_ratio"] = {accept_ratio, "ratio", 1};
  m["core.merge.loops"] = {loops, "count", 1};

  auto busy_frac = [&](const char* stage) {
    const double busy = registry_sum(
        pipeline_registry, "rloop_pipeline_stage_busy_ns_total", "stage", stage);
    const double idle = registry_sum(
        pipeline_registry, "rloop_pipeline_stage_idle_ns_total", "stage", stage);
    return busy + idle == 0 ? 0.0 : busy / (busy + idle);
  };
  m["pipeline.ingest_busy_frac"] = {busy_frac("ingest"), "ratio", 1};
  m["pipeline.detect_busy_frac"] = {busy_frac("detect"), "ratio", 1};
  m["pipeline.validate_ns_per_record"] = {
      per(registry_sum(pipeline_registry, "rloop_pipeline_stage_latency_ns",
                       "stage", "validate"),
          pipeline_records),
      "ns", read.v.size()};
  m["pipeline.merge_ns_per_record"] = {
      per(registry_sum(pipeline_registry, "rloop_pipeline_stage_latency_ns",
                       "stage", "merge"),
          pipeline_records),
      "ns", read.v.size()};
  m["pipeline.warm_ns_per_record"] = warm.metric("ns");
  m["pipeline.warm_allocs_per_record"] = warm_allocs.metric("count");

  m["streaming.ns_per_packet"] = streaming.metric("ns");
  m["streaming.peak_open_entries"] = {peak_open, "count", 1};
  m["streaming.alerts"] = {alerts, "count", 1};

  m["daemon.consumer_cpu_ns_per_packet"] = consumer_cpu.metric("ns");
  m["daemon.batch_mean"] = batch_mean.metric("count");
  m["daemon.epoch_p99_us"] = {
      registry_quantile(live_registry, "rloop_daemon_epoch_latency_ns", 0.99) /
          1e3,
      "us", static_cast<std::size_t>(live.stats.epochs)};
  m["daemon.governor_escalations"] = {
      static_cast<double>(live.stats.degrade_escalations), "count", 1};
  m["daemon.drop_frac"] = {
      live.stats.pushed == 0 ? 0.0
                             : static_cast<double>(live.stats.dropped) /
                                   static_cast<double>(live.stats.pushed),
      "ratio", static_cast<std::size_t>(live.stats.pushed)};
  m["checkpoint.ms"] = {live.final_checkpoint_ms, "ms", 1};
  m["checkpoint.bytes"] = {static_cast<double>(live.final_checkpoint_bytes),
                           "bytes", 1};
  m["checkpoint.count"] = {static_cast<double>(live.stats.checkpoints_written),
                           "count", 1};
  m["http.metrics_ms_p50"] = {quantile(live.metrics_ms, 0.5), "ms",
                              live.metrics_ms.size()};
  m["obs.publish_skipped"] = {static_cast<double>(live.publish_skipped),
                              "count", 1};
  m["loadgen.late_p99_us"] = {quantile(live.late_us, 0.99), "us",
                              live.late_us.size()};
  m["loadgen.offered_pps"] = {live.offered_pps, "1/s", live.late_us.size()};
  m["ops.packet_delay_p99_us"] = {quantile(live.packet_delay_us, 0.99), "us",
                                  live.packet_delay_us.size()};
  m["ops.alert_delay_p50_us"] = {quantile(live.alert_delay_us, 0.5), "us",
                                 live.alert_delay_us.size()};
  m["ops.alert_delay_p90_us"] = {quantile(live.alert_delay_us, 0.9), "us",
                                 live.alert_delay_us.size()};

  m["setup.simulate_s"] = {median(ctx.simulate_s), "s", ctx.simulate_s.size()};
  m["setup.write_pcap_s"] = {median(ctx.write_pcap_s), "s",
                             ctx.write_pcap_s.size()};
  add_setup_metrics(ctx, m);
  m["trace.overhead_frac"] = {
      (median(e2e_traced.v) - median(e2e_plain.v)) / median(e2e_plain.v),
      "ratio", e2e_traced.v.size()};

  std::ofstream out(span_file);
  out << sink.chrome_trace_json();
  if (!out) throw std::runtime_error("cannot write span file " + span_file);
  return m;
}

}  // namespace perfbench
