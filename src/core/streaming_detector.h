// Online (single-pass, bounded-memory) loop detection.
//
// The offline pipeline needs the whole trace for validation step 2 and for
// merging. Operationally, though, a loop alarm is most useful while the loop
// is happening; the paper notes that a surge of replica streams (and of ICMP
// time-exceeded traffic) is a strong live indicator. StreamingDetector
// trades the full prefix-consistency validation for immediacy: it raises an
// alert as soon as any prefix accumulates a replica stream of
// `min_replicas`, with a per-prefix hold-down to avoid alert storms.
//
// Per key (the captured bytes with TTL and checksum masked, Section IV-A.1)
// there is at most one open entry. A packet whose key has no live entry
// opens one; a TTL drop of at least min_ttl_delta counts a replica; a TTL
// increase restarts the entry; a drop of 0 or 1 is ignored and does not
// touch the entry. The open set has the offline engine's two tiers
// (core/detect_state.h), because almost every packet is a first sighting
// that never meets a replica:
//
//  - Tier 1, first sightings: 64-byte slots of (key hash, ts, TTL, masked
//    captured bytes) in two SightingTableOf tables (core/sighting_table.h)
//    rotating by stream_timeout-wide generations. The bytes live in the
//    slot because the caller's packet buffer is reused. Every hash hit is
//    confirmed byte-exact, so a collision never merges two packets, and no
//    ReplicaKey is built for a first sighting. A rotation drops only
//    sightings from two generations back, which are past the timeout, and
//    liveness is still checked exactly (now - ts > stream_timeout) against
//    the reorder-clamped, non-decreasing timestamps.
//  - Tier 2, keys with a replica: a key's first accepted replica moves it
//    into a FlatMap<ReplicaKey, OpenEntry>, found by a masked-bytes
//    predicate. Only this tier and the hold-downs are swept, every 32 Ki
//    packets.
//
// Memory is bounded by (packet rate x stream timeout), independent of how
// long the detector runs, and max_open_entries caps it at a fixed size.
// tests/reference_streaming.h keeps the unordered_map engine this replaced
// as the oracle: same alerts, journal, suspects and live entries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/replica_key.h"
#include "core/sighting_table.h"
#include "net/prefix.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "util/flat_map.h"

namespace rloop::core {

struct LoopAlert {
  net::Prefix prefix24;
  net::TimeNs first_seen = 0;  // first replica of the triggering stream
  net::TimeNs raised_at = 0;   // packet that crossed the threshold
  std::uint64_t replicas = 0;
  int ttl_delta = 0;
};

struct StreamingConfig {
  net::TimeNs stream_timeout = 10 * net::kSecond;
  int min_ttl_delta = 2;
  std::size_t min_replicas = 3;
  // At most one alert per prefix per hold-down interval.
  net::TimeNs alert_holddown = net::kMinute;
  // Out-of-order tolerance for live-capture jitter. A packet whose timestamp
  // is behind the stream by at most this much is clamped to the newest seen
  // timestamp and processed (rloop_streaming_reordered_total); one further
  // behind is dropped (rloop_streaming_reorder_dropped_total). on_packet
  // never throws on a timestamp regression.
  net::TimeNs reorder_tolerance_ns = 0;
  // Hard budget on open entries, both tiers together (0 = unbounded). When
  // an insert would exceed it, entries idle past stream_timeout go first,
  // then the oldest-touched entries, down to ~7/8 of the budget
  // (rloop_streaming_evicted_total). First-sighting tables are capped at
  // 128 bytes per budgeted entry and compacted on eviction, so millions of
  // distinct /24s fit a fixed RSS at the cost of possibly restarting a
  // starved stream's count.
  std::size_t max_open_entries = 0;
};

class StreamingDetector {
 public:
  using AlertCallback = std::function<void(const LoopAlert&)>;

  // One open entry (public so checkpoints can carry the detector's open
  // state). A first sighting is an entry with replicas == 1 and
  // first_ts == last_ts.
  struct OpenEntry {
    net::TimeNs first_ts = 0;
    net::TimeNs last_ts = 0;
    std::uint8_t last_ttl = 0;
    std::uint32_t replicas = 1;
    int last_delta = 0;
    net::Prefix prefix24;
  };

  // A complete, self-contained copy of the detector's mutable state: feed
  // the same packets to a restore()d detector and to the original and they
  // produce identical alerts. Both tiers serialize as `open`, sorted by key,
  // and the hold-downs are sorted too, so the same state always serializes
  // to the same bytes.
  struct Snapshot {
    net::TimeNs last_ts = 0;
    std::uint64_t packets_seen = 0;
    std::uint64_t alerts_raised = 0;
    std::uint64_t reordered = 0;
    std::uint64_t reorder_dropped = 0;
    std::uint64_t evicted = 0;
    std::uint64_t sampled_dropped = 0;
    std::uint64_t peak_open = 0;
    std::uint32_t since_sweep = 0;
    std::vector<std::pair<ReplicaKey, OpenEntry>> open;
    std::vector<std::pair<net::Prefix, net::TimeNs>> holddowns;
  };

  // `registry` (optional) receives rloop_streaming_* counters, the live
  // open-entry gauge (the operator-facing loop-surge signal), the open-table
  // byte gauge and the alert-delay histogram. `journal` (optional) receives
  // an alert_raised / alert_suppressed event per threshold crossing.
  StreamingDetector(StreamingConfig config, AlertCallback on_alert,
                    telemetry::Registry* registry = nullptr,
                    telemetry::DecisionLog* journal = nullptr);

  // Feed one captured packet (bytes start at the IP header). Timestamps may
  // regress by up to reorder_tolerance_ns (clamped) — never throws.
  void on_packet(net::TimeNs ts, std::span<const std::byte> bytes);

  // Replaces the tunable thresholds (reload path for a long-running daemon).
  // Takes effect for subsequent packets; tracked state is kept. A new
  // stream_timeout re-buckets the live first sightings into generations of
  // the new width.
  void update_config(const StreamingConfig& config);
  const StreamingConfig& config() const { return config_; }

  // --- checkpoint/restore ---------------------------------------------------
  // Deterministic copy of all mutable state (see Snapshot). O(open_entries).
  Snapshot snapshot() const;
  // Replaces all mutable state with `snap` (config and callback are kept).
  // After restore, feeding the packets that followed the snapshot reproduces
  // the original alert sequence exactly.
  void restore(const Snapshot& snap);

  // --- graded degradation ---------------------------------------------------
  // Overload sampling (governor tier 3): process only one in `n` packets for
  // destinations that are not currently loop suspects; packets for suspect
  // /24s (an open entry with >=2 replicas, or a recent alert) always pass.
  // 0 or 1 restores full fidelity. Dropped packets are counted
  // (rloop_streaming_sampled_dropped_total) and never reach the parser.
  void set_sample_keep_one_in(std::uint32_t n) { sample_n_ = n; }
  std::uint32_t sample_keep_one_in() const { return sample_n_; }
  std::uint64_t sampled_dropped() const { return sampled_dropped_; }

  // Overload shedding (governor tier 1): detach/reattach the decision
  // journal without touching detection state.
  void set_journal(telemetry::DecisionLog* journal) { journal_ = journal; }

  // --- observability --------------------------------------------------------
  // One currently-open suspect stream, exported live via the daemon's
  // /loops endpoint: an open entry that has accumulated >= 2 replicas (the
  // same threshold that exempts a /24 from overload sampling).
  struct SuspectEntry {
    net::Prefix prefix24;
    net::TimeNs first_ts = 0;
    net::TimeNs last_ts = 0;
    std::uint32_t replicas = 0;
    int ttl_delta = 0;
  };

  // Deterministic copy of the open suspect entries: sorted by replicas
  // descending (hottest loop first), then prefix, then time. `max` > 0
  // truncates — callers copying at epoch boundaries bound the copy, not
  // the caller's patience. Same-thread-only, like every other accessor.
  std::vector<SuspectEntry> suspect_entries(std::size_t max = 0) const;

  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t alerts_raised() const { return alerts_raised_; }
  // Out-of-order packets clamped into the stream / dropped as too late.
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t reorder_dropped() const { return reorder_dropped_; }
  // Entries evicted by the max_open_entries budget (not by normal timeout).
  std::uint64_t evicted() const { return evicted_; }
  // Open entries currently held: live first-sighting slots plus tier-2
  // entries. Entries past the timeout count until their generation rotates
  // out (tier 1) or a sweep removes them (tier 2).
  std::size_t open_entries() const {
    return tables_[0].live() + tables_[1].live() + open_.size();
  }
  // High-water mark of open_entries() over the detector's lifetime; with a
  // budget configured this never exceeds max_open_entries.
  std::size_t peak_open_entries() const { return peak_open_; }
  // Heap bytes held by both tiers, the hold-downs and the suspect set
  // (exported as rloop_streaming_open_table_bytes at every sweep).
  std::size_t bytes_reserved() const;

 private:
  // Tier-1 slot. `normalized` holds the captured bytes with TTL and header
  // checksum zeroed, exactly a ReplicaKey's bytes.
  struct Sighting {
    std::uint64_t hash = 0;
    net::TimeNs ts = 0;
    std::uint8_t ttl = 0;
    std::uint8_t len = 0;
    std::array<std::byte, net::kSnapLen> normalized{};
  };
  using Table = detail::SightingTableOf<Sighting>;
  // Under a budget, both tier-1 tables together get at most 128 bytes per
  // budgeted entry: two slots at the 1/2 load bound, less the tag bytes.
  static std::size_t slot_allowance(std::size_t budget) {
    return 128 * budget / (sizeof(Sighting) + 1);
  }
  static constexpr net::TimeNs kNoGeneration =
      std::numeric_limits<net::TimeNs>::min();

  void sweep(net::TimeNs now);
  void enforce_budget(net::TimeNs now);
  void compact_sightings();
  void set_generation(net::TimeNs ts);
  void advance_generation(net::TimeNs ts);
  void rebucket(net::TimeNs keep_within);
  void place_by_generation(const Sighting& s);
  void make_room(net::TimeNs now);
  void add_sighting(Sighting* vacancy, std::uint64_t hash, net::TimeNs ts,
                    std::uint8_t ttl, std::span<const std::byte> bytes);
  void place_restored(const ReplicaKey& key, const OpenEntry& entry);
  void update(OpenEntry& entry, net::TimeNs ts, std::uint8_t ttl);
  void accept(OpenEntry& entry, net::TimeNs ts, std::uint8_t ttl, int delta);
  void raise(const OpenEntry& entry, net::TimeNs ts);
  void note_entries();
  void rebuild_suspects();

  StreamingConfig config_;
  AlertCallback on_alert_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_parse_failures_ = nullptr;
  telemetry::Counter* m_alerts_ = nullptr;
  telemetry::Counter* m_suppressed_ = nullptr;
  telemetry::Counter* m_reordered_ = nullptr;
  telemetry::Counter* m_reorder_dropped_ = nullptr;
  telemetry::Counter* m_evicted_ = nullptr;
  telemetry::Counter* m_sampled_ = nullptr;
  telemetry::Gauge* m_open_entries_ = nullptr;
  telemetry::Gauge* m_table_bytes_ = nullptr;
  telemetry::Histogram* m_alert_delay_ = nullptr;
  // Tier 1: tables_[cur_] holds the current generation's first sightings,
  // tables_[cur_ ^ 1] the previous generation's.
  Table tables_[2];
  unsigned cur_ = 0;
  net::TimeNs generation_ = kNoGeneration;
  net::TimeNs next_generation_ts_ = kNoGeneration;
  // Tier 2: keys that have seen a replica.
  util::FlatMap<ReplicaKey, OpenEntry, ReplicaKeyHash> open_;
  util::FlatMap<net::Prefix, net::TimeNs> last_alert_;
  // /24s exempt from overload sampling: any open entry that has already
  // accumulated >=2 replicas, plus recently alerted prefixes. Rebuilt from
  // open_/last_alert_ on sweep so it cannot grow without bound.
  util::FlatMap<net::Prefix, bool> suspects_;
  net::TimeNs last_ts_ = 0;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t reorder_dropped_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t sampled_dropped_ = 0;
  std::uint32_t sample_n_ = 0;
  std::uint32_t sample_tick_ = 0;
  std::size_t peak_open_ = 0;
  std::uint32_t since_sweep_ = 0;
};

}  // namespace rloop::core
