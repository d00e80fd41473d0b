#include "core/streaming_detector.h"

#include <algorithm>
#include <new>
#include <utility>
#include <vector>

#include "net/byteio.h"
#include "net/ipv4.h"
#include "util/failpoint.h"

namespace rloop::core {

namespace {

constexpr std::uint32_t kSweepInterval = 1u << 15;

net::Prefix dst24_of(const std::array<std::byte, net::kSnapLen>& bytes) {
  return net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
}

// Budget eviction keeps this many entries below max_open_entries, so
// evictions come in batches instead of on every packet at the boundary.
std::size_t eviction_headroom(std::size_t budget) {
  return std::max<std::size_t>(1, budget / 8);
}

}  // namespace

StreamingDetector::StreamingDetector(StreamingConfig config,
                                     AlertCallback on_alert,
                                     telemetry::Registry* registry,
                                     telemetry::DecisionLog* journal)
    : config_(config),
      on_alert_(std::move(on_alert)),
      journal_(journal),
      m_packets_(telemetry::get_counter(
          registry, "rloop_streaming_packets_total", {},
          "Packets fed to the streaming detector")),
      m_parse_failures_(telemetry::get_counter(
          registry, "rloop_streaming_parse_failures_total", {},
          "Packets whose IP header failed to parse")),
      m_alerts_(telemetry::get_counter(
          registry, "rloop_streaming_alerts_total", {},
          "Loop alerts raised (callback invocations)")),
      m_suppressed_(telemetry::get_counter(
          registry, "rloop_streaming_holddown_suppressed_total", {},
          "Alerts suppressed by the per-prefix hold-down")),
      m_reordered_(telemetry::get_counter(
          registry, "rloop_streaming_reordered_total", {},
          "Out-of-order packets clamped to the newest seen timestamp")),
      m_reorder_dropped_(telemetry::get_counter(
          registry, "rloop_streaming_reorder_dropped_total", {},
          "Packets beyond the reorder tolerance, dropped unprocessed")),
      m_evicted_(telemetry::get_counter(
          registry, "rloop_streaming_evicted_total", {},
          "Entries evicted by the max_open_entries budget")),
      m_sampled_(telemetry::get_counter(
          registry, "rloop_streaming_sampled_dropped_total", {},
          "Non-suspect packets dropped by overload sampling")),
      m_open_entries_(telemetry::get_gauge(
          registry, "rloop_streaming_open_entries", {},
          "Replica-candidate entries currently tracked; a surge here is "
          "the live loop signal")),
      m_table_bytes_(telemetry::get_gauge(
          registry, "rloop_streaming_open_table_bytes", {},
          "Heap bytes held by the open entries, hold-downs and suspect set "
          "(updated at every sweep)")),
      m_alert_delay_(telemetry::get_histogram(
          registry, "rloop_streaming_alert_delay_ns",
          telemetry::exponential_bounds(1e5, 4.0, 12), {},
          "Packet time from a stream's first replica to its alert")) {}

std::size_t StreamingDetector::bytes_reserved() const {
  return tables_[0].bytes_reserved() + tables_[1].bytes_reserved() +
         open_.bytes_reserved() + last_alert_.bytes_reserved() +
         suspects_.bytes_reserved();
}

void StreamingDetector::note_entries() {
  const std::size_t n = open_entries();
  peak_open_ = std::max(peak_open_, n);
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(n));
}

void StreamingDetector::rebuild_suspects() {
  suspects_.clear();
  open_.for_each([&](const ReplicaKey&, const OpenEntry& entry) {
    if (entry.replicas >= 2) suspects_.emplace(entry.prefix24, true);
  });
  last_alert_.for_each([&](const net::Prefix& prefix, const net::TimeNs&) {
    suspects_.emplace(prefix, true);
  });
}

void StreamingDetector::sweep(net::TimeNs now) {
  open_.erase_if([&](const ReplicaKey&, const OpenEntry& entry) {
    return now - entry.last_ts > config_.stream_timeout;
  });
  last_alert_.erase_if([&](const net::Prefix&, const net::TimeNs& ts) {
    return now - ts > 2 * config_.alert_holddown;
  });
  // Rebuild the sampling exemption set from what survived, so it tracks the
  // live suspect population and cannot grow without bound.
  rebuild_suspects();
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_entries()));
  telemetry::set(m_table_bytes_, static_cast<std::int64_t>(bytes_reserved()));
}

// --- tier 1 -----------------------------------------------------------------

void StreamingDetector::set_generation(net::TimeNs ts) {
  const detail::Generation gen =
      detail::generation_of(ts, config_.stream_timeout);
  generation_ = gen.index;
  next_generation_ts_ = gen.next_ts;
}

// Rotates tier 1 so tables_[cur_] is ts's generation. Whatever is cleared
// is at least two generations old, hence past the timeout.
void StreamingDetector::advance_generation(net::TimeNs ts) {
  const net::TimeNs previous = generation_;
  set_generation(ts);
  if (previous != kNoGeneration && generation_ == previous + 1) {
    cur_ ^= 1;
    tables_[cur_].clear();
  } else if (generation_ != previous) {
    for (Table& table : tables_) table.clear();
  }
}

// Moves the first sightings that are live under both the old and the new
// timeout into generations of the new width; the others are past a timeout
// and would restart on their next packet anyway.
void StreamingDetector::rebucket(net::TimeNs keep_within) {
  std::vector<Sighting> kept;
  for (Table& table : tables_) {
    table.for_each_live([&](const Sighting& s) {
      if (last_ts_ - s.ts <= keep_within) kept.push_back(s);
    });
    table.clear();
  }
  set_generation(last_ts_);
  for (const Sighting& s : kept) place_by_generation(s);
}

// Puts a sighting into the current generation's table, or the previous
// one's if it is older.
void StreamingDetector::place_by_generation(const Sighting& s) {
  Table& table =
      detail::generation_of(s.ts, config_.stream_timeout).index >= generation_
          ? tables_[cur_]
          : tables_[cur_ ^ 1];
  table.reserve_one();
  table.place(table.probe(s.hash, [](Sighting&) {}), s);
}

// Sizes both tables to their live sightings within the budget's slot
// allowance: the previous generation's table exactly, the current one with
// room for an eviction batch of inserts. Taken slots are dropped.
void StreamingDetector::compact_sightings() {
  const std::size_t budget = config_.max_open_entries;
  Table& older = tables_[cur_ ^ 1];
  Table& now_table = tables_[cur_];
  older.rebuild(2 * older.live());
  const std::size_t allowance = slot_allowance(budget);
  const std::size_t free_slots =
      allowance > older.capacity() ? allowance - older.capacity() : 0;
  const std::size_t wanted =
      std::min(2 * (now_table.live() + eviction_headroom(budget)), free_slots);
  now_table.rebuild(std::max(wanted, 2 * (now_table.live() + 1)));
}

// Guarantees the current table room for one insert by doubling it. Under
// a budget it grows only within the slot allowance; where the allowance
// leaves less than half an eviction batch of room (which would rebuild
// again a few packets later), it makes room by eviction and compaction.
void StreamingDetector::make_room(net::TimeNs now) {
  Table& table = tables_[cur_];
  if (table.has_room()) return;
  const std::size_t wanted = std::max(Table::kMinSlots, 2 * table.capacity());
  const std::size_t budget = config_.max_open_entries;
  if (budget > 0) {
    const std::size_t allowance = slot_allowance(budget);
    const std::size_t other = tables_[cur_ ^ 1].capacity();
    const std::size_t free_slots = allowance > other ? allowance - other : 0;
    if (free_slots < wanted) {
      if (free_slots < 2 * (table.live() + eviction_headroom(budget) / 2 + 1)) {
        enforce_budget(now);
      } else {
        table.rebuild(free_slots);
      }
      return;
    }
  }
  table.rebuild(wanted);
}

void StreamingDetector::add_sighting(Sighting* vacancy, std::uint64_t hash,
                                     net::TimeNs ts, std::uint8_t ttl,
                                     std::span<const std::byte> bytes) {
  Table& table = tables_[cur_];
  if (vacancy == nullptr || !table.has_room()) {
    make_room(ts);
    vacancy = table.probe(hash, [](Sighting&) {});
  }
  Sighting s;
  s.hash = hash;
  s.ts = ts;
  s.ttl = ttl;
  s.len = static_cast<std::uint8_t>(std::min(bytes.size(), net::kSnapLen));
  std::copy_n(bytes.begin(), s.len, s.normalized.begin());
  s.normalized[8] = std::byte{0};   // TTL
  s.normalized[10] = std::byte{0};  // checksum
  s.normalized[11] = std::byte{0};
  table.place(vacancy, s);
}

// --- budget -----------------------------------------------------------------

// Hard-budget eviction (the bounded-memory guarantee the daemon relies on).
// Entries idle past stream_timeout can never extend a stream and go first;
// if that is not enough, the oldest-touched entries of both tiers go, down
// to ~7/8 of the budget, ties broken by key hash so the choice does not
// depend on table layout. Then tier 1 is compacted so its bytes follow the
// budget too.
void StreamingDetector::enforce_budget(net::TimeNs now) {
  const std::size_t before = open_entries();
  const auto evict_sightings = [&](const auto& doomed) {
    for (Table& table : tables_) {
      table.for_each_live([&](Sighting& s) {
        if (doomed(s.ts, s.hash)) table.take(s);
      });
    }
  };
  const auto idle = [&](net::TimeNs ts, std::uint64_t) {
    return now - ts > config_.stream_timeout;
  };
  open_.erase_if([&](const ReplicaKey& key, const OpenEntry& entry) {
    return idle(entry.last_ts, key.hash);
  });
  evict_sightings(idle);

  const std::size_t budget = config_.max_open_entries;
  const std::size_t target = budget - eviction_headroom(budget);
  if (open_entries() > target) {
    using Touch = std::pair<net::TimeNs, std::uint64_t>;
    std::vector<Touch> touched;
    touched.reserve(open_entries());
    for (const Table& table : tables_) {
      table.for_each_live(
          [&](const Sighting& s) { touched.emplace_back(s.ts, s.hash); });
    }
    open_.for_each([&](const ReplicaKey& key, const OpenEntry& entry) {
      touched.emplace_back(entry.last_ts, key.hash);
    });
    // The k-th oldest (last touch, hash) is the eviction cutoff.
    const std::size_t k = touched.size() - target;
    std::nth_element(touched.begin(), touched.begin() + (k - 1),
                     touched.end());
    const Touch cutoff = touched[k - 1];
    const auto old = [&](net::TimeNs ts, std::uint64_t hash) {
      return Touch{ts, hash} <= cutoff;
    };
    open_.erase_if([&](const ReplicaKey& key, const OpenEntry& entry) {
      return old(entry.last_ts, key.hash);
    });
    evict_sightings(old);
  }
  compact_sightings();

  const std::uint64_t evicted = before - open_entries();
  evicted_ += evicted;
  telemetry::inc(m_evicted_, evicted);
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_entries()));
  telemetry::set(m_table_bytes_, static_cast<std::int64_t>(bytes_reserved()));
}

// --- the per-key state machine ----------------------------------------------

void StreamingDetector::raise(const OpenEntry& entry, net::TimeNs ts) {
  auto [last, first_alert] = last_alert_.emplace(entry.prefix24, ts);
  if (!first_alert && ts - *last < config_.alert_holddown) {
    telemetry::inc(m_suppressed_);
    telemetry::record(
        journal_, {.kind = telemetry::DecisionKind::alert_suppressed,
                   .dst24 = entry.prefix24,
                   .ts = ts,
                   .record_index = static_cast<std::uint32_t>(packets_seen_),
                   .detail = ts - *last});
    return;
  }
  *last = ts;
  ++alerts_raised_;
  telemetry::inc(m_alerts_);
  telemetry::observe(m_alert_delay_,
                     static_cast<double>(ts - entry.first_ts));
  telemetry::record(
      journal_, {.kind = telemetry::DecisionKind::alert_raised,
                 .dst24 = entry.prefix24,
                 .ts = ts,
                 .record_index = static_cast<std::uint32_t>(packets_seen_),
                 .detail = static_cast<std::int64_t>(entry.replicas),
                 .detail2 = entry.last_delta});
  if (on_alert_) {
    LoopAlert alert;
    alert.prefix24 = entry.prefix24;
    alert.first_seen = entry.first_ts;
    alert.raised_at = ts;
    alert.replicas = entry.replicas;
    alert.ttl_delta = entry.last_delta;
    on_alert_(alert);
  }
}

void StreamingDetector::accept(OpenEntry& entry, net::TimeNs ts,
                               std::uint8_t ttl, int delta) {
  entry.last_ttl = ttl;
  entry.last_ts = ts;
  entry.last_delta = delta;
  ++entry.replicas;
  // Two replicas make the entry a loop suspect: exempt its /24 from overload
  // sampling so the stream's count stays exact under degradation.
  if (entry.replicas == 2) suspects_.emplace(entry.prefix24, true);
  if (entry.replicas >= config_.min_replicas) raise(entry, ts);
}

// Tier 2: the key has seen a replica (or was restored with one).
void StreamingDetector::update(OpenEntry& entry, net::TimeNs ts,
                               std::uint8_t ttl) {
  const auto restart = [&] {
    const net::Prefix prefix24 = entry.prefix24;
    entry = OpenEntry{};
    entry.first_ts = ts;
    entry.last_ts = ts;
    entry.last_ttl = ttl;
    entry.prefix24 = prefix24;
  };
  if (ts - entry.last_ts > config_.stream_timeout) {
    restart();
    return;
  }
  const int delta = static_cast<int>(entry.last_ttl) - static_cast<int>(ttl);
  if (delta < config_.min_ttl_delta) {
    // A TTL increase is a different original packet with identical bytes;
    // an equal or one-lower TTL is a link-layer duplicate or adjacent hop,
    // not loop evidence.
    if (delta < 0) restart();
    return;
  }
  accept(entry, ts, ttl, delta);
}

void StreamingDetector::on_packet(net::TimeNs ts,
                                  std::span<const std::byte> bytes) {
  ++packets_seen_;
  telemetry::inc(m_packets_);
  if (packets_seen_ > 1 && ts < last_ts_) {
    // Capture jitter: clamp small regressions into the stream, drop the rest.
    if (last_ts_ - ts > config_.reorder_tolerance_ns) {
      ++reorder_dropped_;
      telemetry::inc(m_reorder_dropped_);
      return;
    }
    ts = last_ts_;
    ++reordered_;
    telemetry::inc(m_reordered_);
  }
  last_ts_ = ts;
  if (ts >= next_generation_ts_) advance_generation(ts);

  if (++since_sweep_ >= kSweepInterval) {
    since_sweep_ = 0;
    sweep(ts);
  }

  // Overload sampling (governor tier 3): non-suspect destinations are
  // decimated 1-in-sample_n_ before any parsing or hashing. Suspect /24s
  // keep full fidelity so an in-progress loop's replica count stays exact.
  if (sample_n_ > 1 && bytes.size() >= net::kIpv4HeaderSize) {
    const net::Prefix dst24 =
        net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
    if (suspects_.find(dst24) == nullptr && ++sample_tick_ % sample_n_ != 0) {
      ++sampled_dropped_;
      telemetry::inc(m_sampled_);
      return;
    }
  }

  if (RLOOP_FAILPOINT("streaming.insert")) throw std::bad_alloc();

  // Only the TTL and destination are read; the header parse fails exactly
  // when a full packet parse would.
  const auto ip = net::Ipv4Header::parse(bytes);
  if (!ip) {
    telemetry::inc(m_parse_failures_);
    return;
  }
  const std::uint64_t hash = replica_key_hash(bytes);
  const auto same_key = [bytes](const ReplicaKey& k) {
    return same_replica_bytes({k.normalized.data(), k.len}, bytes);
  };

  if (OpenEntry* entry = open_.find_hashed(hash, same_key)) {
    note_entries();
    update(*entry, ts, ip->ttl);
    return;
  }

  // Tier 1: the key's sighting, if any, is in exactly one of the tables.
  Sighting* hit = nullptr;
  const auto match = [&](Sighting& s) {
    if (same_replica_bytes({s.normalized.data(), s.len}, bytes)) hit = &s;
  };
  Sighting* vacancy = tables_[cur_].probe(hash, match);
  const unsigned hit_table = hit != nullptr ? cur_ : cur_ ^ 1;
  if (hit == nullptr) tables_[cur_ ^ 1].probe(hash, match);

  if (hit == nullptr) {
    if (config_.max_open_entries > 0 &&
        open_entries() >= config_.max_open_entries) {
      enforce_budget(ts);
      vacancy = nullptr;
    }
    add_sighting(vacancy, hash, ts, ip->ttl, bytes);
    note_entries();
    return;
  }
  note_entries();

  const int delta = static_cast<int>(hit->ttl) - static_cast<int>(ip->ttl);
  if (ts - hit->ts > config_.stream_timeout ||
      (delta < config_.min_ttl_delta && delta < 0)) {
    // Restart: expired, or a TTL increase (a different original packet).
    if (hit_table == cur_) {
      hit->ts = ts;
      hit->ttl = ip->ttl;
    } else {
      tables_[hit_table].take(*hit);
      add_sighting(vacancy, hash, ts, ip->ttl, bytes);
    }
    return;
  }
  if (delta < config_.min_ttl_delta) return;

  // The key's first replica: promote it to tier 2.
  OpenEntry promoted;
  promoted.first_ts = hit->ts;
  promoted.last_ts = hit->ts;
  promoted.last_ttl = hit->ttl;
  promoted.prefix24 = net::Prefix::slash24(ip->dst);
  ReplicaKey key;
  key.normalized = hit->normalized;
  key.len = hit->len;
  key.hash = hash;
  OpenEntry* entry =
      open_.emplace_hashed(hash, same_key, std::move(key), promoted).first;
  tables_[hit_table].take(*hit);
  accept(*entry, ts, ip->ttl, delta);
}

// --- reload, snapshot, restore ------------------------------------------------

void StreamingDetector::update_config(const StreamingConfig& config) {
  const net::TimeNs old_timeout = config_.stream_timeout;
  config_ = config;
  if (config.stream_timeout != old_timeout && generation_ != kNoGeneration) {
    rebucket(std::min(old_timeout, config.stream_timeout));
  }
}

std::vector<StreamingDetector::SuspectEntry>
StreamingDetector::suspect_entries(std::size_t max) const {
  std::vector<SuspectEntry> out;
  open_.for_each([&](const ReplicaKey&, const OpenEntry& entry) {
    if (entry.replicas < 2) return;
    out.push_back({entry.prefix24, entry.first_ts, entry.last_ts,
                   entry.replicas, entry.last_delta});
  });
  std::sort(out.begin(), out.end(),
            [](const SuspectEntry& a, const SuspectEntry& b) {
              if (a.replicas != b.replicas) return a.replicas > b.replicas;
              if (a.prefix24 != b.prefix24) return a.prefix24 < b.prefix24;
              if (a.first_ts != b.first_ts) return a.first_ts < b.first_ts;
              if (a.last_ts != b.last_ts) return a.last_ts < b.last_ts;
              return a.ttl_delta < b.ttl_delta;
            });
  if (max > 0 && out.size() > max) out.resize(max);
  return out;
}

StreamingDetector::Snapshot StreamingDetector::snapshot() const {
  Snapshot snap;
  snap.last_ts = last_ts_;
  snap.packets_seen = packets_seen_;
  snap.alerts_raised = alerts_raised_;
  snap.reordered = reordered_;
  snap.reorder_dropped = reorder_dropped_;
  snap.evicted = evicted_;
  snap.sampled_dropped = sampled_dropped_;
  snap.peak_open = peak_open_;
  snap.since_sweep = since_sweep_;
  snap.open.reserve(open_entries());
  for (const Table& table : tables_) {
    table.for_each_live([&](const Sighting& s) {
      ReplicaKey key;
      key.normalized = s.normalized;
      key.len = s.len;
      key.hash = s.hash;
      OpenEntry entry;
      entry.first_ts = s.ts;
      entry.last_ts = s.ts;
      entry.last_ttl = s.ttl;
      entry.prefix24 = dst24_of(s.normalized);
      snap.open.emplace_back(key, entry);
    });
  }
  open_.for_each([&](const ReplicaKey& key, const OpenEntry& entry) {
    snap.open.emplace_back(key, entry);
  });
  // Canonical order: identical state must serialize to identical bytes
  // regardless of table layout.
  std::sort(snap.open.begin(), snap.open.end(),
            [](const auto& a, const auto& b) {
              if (a.first.hash != b.first.hash) {
                return a.first.hash < b.first.hash;
              }
              if (a.first.len != b.first.len) return a.first.len < b.first.len;
              return a.first.normalized < b.first.normalized;
            });
  snap.holddowns.reserve(last_alert_.size());
  last_alert_.for_each([&](const net::Prefix& prefix, const net::TimeNs& ts) {
    snap.holddowns.emplace_back(prefix, ts);
  });
  std::sort(snap.holddowns.begin(), snap.holddowns.end());
  return snap;
}

// A first sighting (one replica, untouched since it opened, /24 matching
// its bytes) goes back into the tier-1 table of its generation; any other
// entry into tier 2. A key already present keeps its first entry.
void StreamingDetector::place_restored(const ReplicaKey& key,
                                       const OpenEntry& entry) {
  const std::span<const std::byte> bytes(key.normalized.data(), key.len);
  const auto same_key = [&](const ReplicaKey& k) {
    return same_replica_bytes({k.normalized.data(), k.len}, bytes);
  };
  if (open_.find_hashed(key.hash, same_key) != nullptr) return;
  bool present = false;
  const auto match = [&](Sighting& s) {
    present = present ||
              same_replica_bytes({s.normalized.data(), s.len}, bytes);
  };
  for (Table& table : tables_) table.probe(key.hash, match);
  if (present) return;

  const bool sighting = entry.replicas == 1 &&
                        entry.first_ts == entry.last_ts &&
                        entry.last_delta == 0 && key.len >= 20 &&
                        entry.prefix24 == dst24_of(key.normalized);
  if (!sighting) {
    open_.emplace_hashed(key.hash, same_key, key, entry);
    return;
  }
  Sighting s;
  s.hash = key.hash;
  s.ts = entry.last_ts;
  s.ttl = entry.last_ttl;
  s.len = key.len;
  s.normalized = key.normalized;
  place_by_generation(s);
}

void StreamingDetector::restore(const Snapshot& snap) {
  for (Table& table : tables_) table.clear();
  open_.clear();
  last_alert_.clear();
  last_ts_ = snap.last_ts;
  packets_seen_ = snap.packets_seen;
  alerts_raised_ = snap.alerts_raised;
  reordered_ = snap.reordered;
  reorder_dropped_ = snap.reorder_dropped;
  evicted_ = snap.evicted;
  sampled_dropped_ = snap.sampled_dropped;
  peak_open_ = static_cast<std::size_t>(snap.peak_open);
  since_sweep_ = snap.since_sweep;
  set_generation(last_ts_);
  for (const auto& [key, entry] : snap.open) place_restored(key, entry);
  for (const auto& [prefix, ts] : snap.holddowns) last_alert_.emplace(prefix, ts);
  rebuild_suspects();
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_entries()));
  telemetry::set(m_table_bytes_, static_cast<std::int64_t>(bytes_reserved()));
}

static_assert(sizeof(StreamingDetector::OpenEntry) <= 40);

}  // namespace rloop::core
