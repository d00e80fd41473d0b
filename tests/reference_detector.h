// Test-only oracle for replica detection (step 1 of the paper's algorithm).
//
// The straightforward engine the flat-table/arena detector replaced: one
// std::unordered_map from ReplicaKey to a vector of open streams, each a
// std::vector of replicas. It is deliberately simple and slow, and its
// output defines the detector's semantics: ReplicaDetector::detect and the
// pipelined detect_loops() must produce field-identical streams on every
// input (tests/test_memory_layout.cc diffs them). Do not modify without
// regenerating the golden fixtures.
#pragma once

#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "core/detect_state.h"
#include "core/record.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/trace.h"

namespace rloop::testing {

class ReferenceDetector {
 public:
  explicit ReferenceDetector(core::ReplicaDetectorConfig config = {})
      : config_(config) {}

  // Every stream with at least two elements, in the canonical (start, first
  // record index) order. `records` must be parse_trace(trace).
  std::vector<core::ReplicaStream> detect(
      const net::Trace& trace, const std::vector<core::ParsedRecord>& records) {
    for (const core::ParsedRecord& rec : records) {
      if (!rec.ok) continue;
      process(rec, core::make_replica_key(trace[rec.index].bytes()));
    }
    for (auto& [key, streams] : open_) {
      for (auto& os : streams) close_stream(std::move(os));
    }
    open_.clear();
    core::detail::sort_streams(closed_);
    return std::move(closed_);
  }

 private:
  struct OpenStream {
    core::ReplicaStream stream;
    std::uint8_t last_ttl = 0;
    net::TimeNs last_ts = 0;
  };

  static constexpr std::uint32_t kSweepInterval = 1 << 16;

  bool stale(const OpenStream& os, net::TimeNs now) const {
    return now - os.last_ts > config_.stream_timeout;
  }

  void close_stream(OpenStream&& os) {
    if (os.stream.size() >= 2) closed_.push_back(std::move(os.stream));
  }

  // Closes and erases every stale stream in `streams`.
  void expire(std::vector<OpenStream>& streams, net::TimeNs now) {
    for (auto it = streams.begin(); it != streams.end();) {
      if (stale(*it, now)) {
        close_stream(std::move(*it));
        it = streams.erase(it);
      } else {
        ++it;
      }
    }
  }

  void process(const core::ParsedRecord& rec, const core::ReplicaKey& key) {
    // Periodic sweep of every key: bounds memory on long traces.
    if (++since_sweep_ >= kSweepInterval) {
      since_sweep_ = 0;
      for (auto it = open_.begin(); it != open_.end();) {
        expire(it->second, rec.ts);
        it = it->second.empty() ? open_.erase(it) : std::next(it);
      }
    }

    auto& streams = open_[key];
    expire(streams, rec.ts);

    // Try to extend the most recent compatible stream.
    for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
      const int delta =
          static_cast<int>(it->last_ttl) - static_cast<int>(rec.pkt.ip.ttl);
      const bool looped = delta >= config_.min_ttl_delta;
      const bool duplicate = config_.keep_link_layer_duplicates && delta == 0;
      if (looped || duplicate) {
        it->stream.replicas.push_back({rec.index, rec.ts, rec.pkt.ip.ttl});
        if (looped) it->last_ttl = rec.pkt.ip.ttl;
        it->last_ts = rec.ts;
        return;
      }
    }

    // Start a new stream headed by this packet.
    OpenStream os;
    os.stream.key = key;
    os.stream.dst = rec.pkt.ip.dst;
    os.stream.dst24 = rec.dst24;
    os.stream.replicas.push_back({rec.index, rec.ts, rec.pkt.ip.ttl});
    os.last_ttl = rec.pkt.ip.ttl;
    os.last_ts = rec.ts;
    streams.push_back(std::move(os));
  }

  core::ReplicaDetectorConfig config_;
  std::unordered_map<core::ReplicaKey, std::vector<OpenStream>,
                     core::ReplicaKeyHash>
      open_;
  std::vector<core::ReplicaStream> closed_;
  std::uint32_t since_sweep_ = 0;
};

// One-shot convenience wrapper.
inline std::vector<core::ReplicaStream> reference_detect(
    const net::Trace& trace, const std::vector<core::ParsedRecord>& records,
    const core::ReplicaDetectorConfig& config = {}) {
  return ReferenceDetector(config).detect(trace, records);
}

}  // namespace rloop::testing
