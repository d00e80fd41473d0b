#include "core/loop_detector.h"

#include "core/pipeline.h"
#include "core/prefix_index.h"
#include "core/record_store.h"

namespace rloop::core {

namespace detail {

telemetry::Histogram* stage_histogram(telemetry::Registry* registry,
                                      const char* stage) {
  return telemetry::get_histogram(
      registry, "rloop_pipeline_stage_latency_ns",
      telemetry::latency_bounds_ns(), {{"stage", stage}},
      "Wall-clock latency of one detection-pipeline stage per call");
}

void finish_detect_loops(const RecordStore& store,
                         const LoopDetectorConfig& config,
                         NonLoopedScratch& scratch,
                         LoopDetectionResult& result) {
  telemetry::Registry* reg = config.registry;
  result.total_records = store.size();
  result.parse_failures = store.parse_failures();
  telemetry::inc(telemetry::get_counter(
                     reg, "rloop_pipeline_parse_failures_total", {},
                     "Trace records whose IP header failed to parse"),
                 result.parse_failures);
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "validate"));
    const telemetry::ScopedSpan span(config.trace, "validate");
    const StreamValidator validator(config.validator, reg, config.journal);
    result.valid_streams = validator.validate(store, result.raw_streams,
                                              &result.validation, &scratch);
  }
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "merge"));
    const telemetry::ScopedSpan span(config.trace, "merge");
    const StreamMerger merger(config.merger, reg, config.journal);
    result.loops = merger.merge(store, result.valid_streams, &scratch);
  }
}

}  // namespace detail

std::uint64_t LoopDetectionResult::looped_packet_records() const {
  std::uint64_t total = 0;
  for (const auto& stream : valid_streams) {
    total += stream.size();
  }
  return total;
}

LoopDetectionResult detect_loops(const net::Trace& trace,
                                 const LoopDetectorConfig& config) {
  if (config.parallel.enabled()) {
    // The staged dataflow (core/pipeline.h) replaces the old barrier-style
    // stage sequence: ingest/parse/detect overlap per epoch instead of
    // joining the pool between stages. A caller-provided workspace carries
    // warm state across calls; without one the workspace lives for this call.
    if (config.workspace != nullptr) {
      return detect_loops_pipelined(trace, config, *config.workspace);
    }
    PipelineWorkspace workspace;
    return detect_loops_pipelined(trace, config, workspace);
  }

  telemetry::Registry* reg = config.registry;
  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");
  // Parse: write the SoA RecordStore the detect/validate/merge scans run on
  // straight from the captured bytes, replica-key hash column included
  // (computed once per record, reused by every later stage).
  RecordStore store;
  {
    const telemetry::ScopedTimer timer(detail::stage_histogram(reg, "parse"));
    const telemetry::ScopedSpan span(config.trace, "parse");
    store = RecordStore::build(trace);
  }
  {
    const telemetry::ScopedTimer timer(detail::stage_histogram(reg, "detect"));
    const telemetry::ScopedSpan span(config.trace, "detect");
    const ReplicaDetector detector(config.detector, reg, config.journal);
    result.raw_streams = detector.detect(store);
  }
  NonLoopedScratch scratch;
  detail::finish_detect_loops(store, config, scratch, result);
  return result;
}

}  // namespace rloop::core
