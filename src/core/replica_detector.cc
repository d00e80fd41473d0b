#include "core/replica_detector.h"

#include <algorithm>
#include <array>

#include "core/detect_state.h"
#include "util/simd.h"

namespace rloop::core {

using detail::FlatDetectState;

std::vector<int> ReplicaStream::ttl_deltas() const {
  std::vector<int> deltas;
  deltas.reserve(replicas.size() > 0 ? replicas.size() - 1 : 0);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    deltas.push_back(static_cast<int>(replicas[i - 1].ttl) -
                     static_cast<int>(replicas[i].ttl));
  }
  return deltas;
}

int ReplicaStream::dominant_ttl_delta() const {
  // A TTL delta fits [1, 255]; a direct-indexed counter avoids the
  // allocating ordered map this used, and the ascending scan with a strict
  // `>` keeps the same tie-break (smallest delta wins). The pairwise
  // accumulation runs through the SIMD histogram kernel in 256-pair tiles
  // gathered from the replica array (each TTL is one strided byte of a
  // Replica), with one element of overlap so tile seams contribute their
  // pair exactly once.
  std::array<std::uint32_t, 256> counts{};
  const std::size_t n = replicas.size();
  std::uint8_t ttls[257];
  std::size_t i = 1;
  while (i < n) {
    const std::size_t pairs = std::min<std::size_t>(256, n - i);
    ttls[0] = replicas[i - 1].ttl;
    for (std::size_t j = 0; j < pairs; ++j) {
      ttls[j + 1] = replicas[i + j].ttl;
    }
    util::simd::ttl_delta_hist(ttls, pairs + 1, counts.data());
    i += pairs;
  }
  int best = 0;
  std::uint32_t best_count = 0;
  for (int d = 1; d < 256; ++d) {
    if (counts[static_cast<std::size_t>(d)] > best_count) {
      best = d;
      best_count = counts[static_cast<std::size_t>(d)];
    }
  }
  return best;
}

double ReplicaStream::mean_spacing_ns() const {
  if (replicas.size() < 2) return 0.0;
  return static_cast<double>(duration()) /
         static_cast<double>(replicas.size() - 1);
}

ReplicaDetector::ReplicaDetector(ReplicaDetectorConfig config,
                                 telemetry::Registry* registry,
                                 telemetry::DecisionLog* journal)
    : config_(config),
      journal_(journal),
      m_records_(telemetry::get_counter(
          registry, "rloop_detector_records_total", {},
          "Parsed records scanned by the replica detector")),
      m_replicas_(telemetry::get_counter(
          registry, "rloop_detector_replicas_matched_total", {},
          "Observations matched into an existing replica stream")),
      m_streams_opened_(telemetry::get_counter(
          registry, "rloop_detector_streams_opened_total", {},
          "Candidate streams opened (one per first-seen header)")),
      m_streams_expired_(telemetry::get_counter(
          registry, "rloop_detector_streams_expired_total", {},
          "Candidate streams closed by the stream timeout")),
      m_streams_emitted_(telemetry::get_counter(
          registry, "rloop_detector_streams_emitted_total", {},
          "Closed streams with >= 2 replicas handed to validation")),
      m_spacing_(telemetry::get_histogram(
          registry, "rloop_detector_replica_spacing_ns",
          telemetry::spacing_bounds_ns(), {},
          "Spacing between successive replicas of one stream")) {}

// The two-tier engine itself (FlatDetectState and its helpers) lives in
// core/detect_state.h: the staged dataflow in core/pipeline.cc keeps one
// warm state per shard across runs, so it needs the type, not just the
// detect() entry point below.

std::vector<ReplicaStream> ReplicaDetector::detect(
    const RecordStore& store) const {
  FlatDetectState state(config_, m_spacing_, journal_);
  const std::size_t n = store.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!store.ok(i)) continue;
    state.process(store, i);
  }
  auto closed = state.finish();

  telemetry::inc(m_records_, state.counts.records);
  telemetry::inc(m_replicas_, state.counts.replicas);
  telemetry::inc(m_streams_opened_, state.counts.opened);
  telemetry::inc(m_streams_expired_, state.counts.expired);
  telemetry::inc(m_streams_emitted_, state.counts.emitted);
  return closed;
}

std::vector<bool> stream_membership(std::size_t record_count,
                                    const std::vector<ReplicaStream>& streams) {
  std::vector<bool> member;
  stream_membership(record_count, streams, member);
  return member;
}

void stream_membership(std::size_t record_count,
                       const std::vector<ReplicaStream>& streams,
                       std::vector<bool>& out) {
  out.assign(record_count, false);
  for (const auto& stream : streams) {
    for (const auto& replica : stream.replicas) {
      out[replica.record_index] = true;
    }
  }
}

}  // namespace rloop::core
