// Step 1 of the paper's algorithm: detect replicas and group them into
// replica streams.
//
// A stream grows while each new observation of the same normalized header
// has a TTL at least `min_ttl_delta` below the previous one (a loop spans at
// least two routers, so a replica returns with TTL reduced by >= 2).
// Observations with *equal* TTL are link-layer duplicates (token-ring
// drain failures, SONET protection-layer copies — paper §IV-A.2); they are
// kept in the stream so that step 2 can discard two-element streams, but a
// TTL *increase* or a stale stream (quiet longer than `stream_timeout`)
// starts a fresh stream for the same key (IP ID wrap / retransmission with
// identical bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_key.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"

namespace rloop::core {

struct Replica {
  std::uint32_t record_index = 0;
  net::TimeNs ts = 0;
  std::uint8_t ttl = 0;
};

struct ReplicaStream {
  ReplicaKey key;
  net::Ipv4Addr dst;
  net::Prefix dst24;
  std::vector<Replica> replicas;  // in time order

  std::size_t size() const { return replicas.size(); }
  net::TimeNs start() const { return replicas.front().ts; }
  net::TimeNs end() const { return replicas.back().ts; }
  net::TimeNs duration() const { return end() - start(); }

  // TTL differences between successive replicas (zero entries are
  // link-layer duplicates).
  std::vector<int> ttl_deltas() const;
  // The most common nonzero TTL delta — the loop's hop count. Returns 0 when
  // the stream contains only equal-TTL duplicates.
  int dominant_ttl_delta() const;
  // Mean spacing between successive replicas, the paper's Figure 4 metric.
  double mean_spacing_ns() const;
};

struct ReplicaDetectorConfig {
  // A key quiet for longer than this closes its stream. Loops the paper
  // found last seconds; 10 s is comfortably past any replica gap.
  net::TimeNs stream_timeout = 10 * net::kSecond;
  // Minimum TTL decrease between successive replicas (paper: 2).
  int min_ttl_delta = 2;
  // Accept equal-TTL observations as link-layer duplicates within a stream.
  bool keep_link_layer_duplicates = true;
};

class ReplicaDetector {
 public:
  // `registry` (optional) receives rloop_detector_* counters and the
  // inter-replica spacing histogram; metrics resolve once here, never in
  // detect(). `journal` (optional) receives per-match decisions: a
  // replica_accepted / replica_rejected event for every observation that had
  // an open candidate stream, and a stream_emitted event per closed stream
  // (ordinary first-seen packets are not journaled — they would flood the
  // ring with non-decisions).
  explicit ReplicaDetector(ReplicaDetectorConfig config = {},
                           telemetry::Registry* registry = nullptr,
                           telemetry::DecisionLog* journal = nullptr);

  // Returns every stream with at least two elements, ordered by start time.
  // The store is the columnized trace (RecordStore::build); records with
  // ok == false are ignored. The hot path is a two-tier open set
  // (core/detect_state.h). First sightings — ~99 % of records — take one
  // 24-byte slot in a compact table keyed by the store's hash column,
  // confirmed byte-exact against the captured bytes on every hash hit and
  // expired wholesale per stream_timeout-wide time generation. Keys that see
  // a replica move to a flat map of arena-backed streams (util/flat_map.h,
  // util/arena.h). Against the single-tier table it replaced this cut
  // detect from 325-474 to 69-130 ns/record on backbone2 (4-vCPU Xeon
  // container; see core/detect_state.h), and detect memory now follows
  // arrival rate x timeout rather than trace length. Output is field-identical to the straightforward
  // unordered_map engine kept as a test oracle (tests/reference_detector.h)
  // — the differential tests in tests/test_memory_layout.cc prove it.
  std::vector<ReplicaStream> detect(const RecordStore& store) const;

 private:
  ReplicaDetectorConfig config_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_records_ = nullptr;
  telemetry::Counter* m_replicas_ = nullptr;
  telemetry::Counter* m_streams_opened_ = nullptr;
  telemetry::Counter* m_streams_expired_ = nullptr;
  telemetry::Counter* m_streams_emitted_ = nullptr;
  telemetry::Histogram* m_spacing_ = nullptr;
};

// Marks which record indices belong to any stream in `streams`.
std::vector<bool> stream_membership(std::size_t record_count,
                                    const std::vector<ReplicaStream>& streams);

// In-place equivalent: fills `out` (reusing its capacity) instead of
// allocating a fresh vector. Used by the pipeline workspace.
void stream_membership(std::size_t record_count,
                       const std::vector<ReplicaStream>& streams,
                       std::vector<bool>& out);

}  // namespace rloop::core
