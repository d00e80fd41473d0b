// The replica-detection engine, shared by the serial ReplicaDetector::detect
// and the staged dataflow (core/pipeline.cc), which keeps one warm state per
// shard across runs.
//
// Nearly every record is a first sighting that never meets a replica (0.8 %
// of backbone2's records are replicas), so the open set has two tiers:
//
//  - Tier 1, first sightings: a compact open-addressing table
//    (core/sighting_table.h, shared with the streaming detector) of
//    (key hash, ts, record index, ttl), 24 bytes a slot plus one tag byte,
//    keyed by the store's key_hash column. A hash hit is confirmed
//    byte-exact against the trace's captured bytes (same_replica_bytes), so
//    a collision never merges two packets and no ReplicaKey is built per
//    record. Sightings
//    expire by time generation: one table per stream_timeout-wide slice of
//    time, two in rotation. When the current record's generation advances
//    by one the older table is cleared in place; a gap of two or more
//    clears both. A sighting from two generations back is necessarily past
//    the timeout, and liveness is still checked exactly (now - ts >
//    stream_timeout), so rotation timing changes memory and the expired
//    counter, never the output. This relies on the Trace guarantee of
//    non-decreasing timestamps.
//  - Tier 2, promoted keys: a key's first accepted replica moves every live
//    first sighting of that key, newest first, into a FlatMap<ReplicaKey,
//    chain> of arena-allocated FlatOpenStream nodes — the same per-key scan
//    order as the oracle's vector. While the key stays there its later
//    first sightings join the chain. Lookups use a masked-bytes predicate.
//    Only this small tier is swept every 64 Ki records.
//
// Detect memory is therefore bounded by arrival rate x stream_timeout for
// first sightings and by the replica population for streams, not by trace
// length. reset() rewinds the arena and clears both tiers in place, which is
// what lets a persistent pipeline workspace run detect without heap traffic
// once warm. Against the single-tier table this replaced (one FlatMap slot
// holding a full ReplicaKey plus one arena stream per first sighting),
// ReplicaDetector::detect on the benchmark's seed-1 pcaps, Release build,
// 4-vCPU Xeon container, medians of three interleaved sets of five runs:
// backbone2 325-474 -> 69-130 ns/record, loop_storm 248-315 -> 85-117; peak
// RSS of a read+parse+columnize+detect process 414 -> 259 MB (backbone2)
// and 276 -> 187 MB (loop_storm).
//
// Field-identical streams to the straightforward unordered_map engine kept
// as the test oracle (tests/reference_detector.h): at every record both
// engines hold the same live open streams per key, in the same order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "core/sighting_table.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "util/arena.h"
#include "util/flat_map.h"

namespace rloop::core::detail {

struct LocalCounts {
  std::uint64_t records = 0;
  std::uint64_t replicas = 0;
  std::uint64_t opened = 0;
  std::uint64_t expired = 0;
  std::uint64_t emitted = 0;

  void add(const LocalCounts& other) {
    records += other.records;
    replicas += other.replicas;
    opened += other.opened;
    expired += other.expired;
    emitted += other.emitted;
  }
};

// The canonical emission order: (start, first record index) is a strict
// total order — a record heads at most one stream — so sorted output does
// not depend on closing order, and the pipeline's merge of per-shard sorted
// runs reproduces the serial order exactly.
inline void sort_streams(std::vector<ReplicaStream>& streams) {
  std::sort(streams.begin(), streams.end(),
            [](const ReplicaStream& a, const ReplicaStream& b) {
              if (a.start() != b.start()) return a.start() < b.start();
              return a.replicas.front().record_index <
                     b.replicas.front().record_index;
            });
}

// Overflow storage for replicas beyond the two inline slots.
struct ReplicaChunk {
  static constexpr std::uint32_t kCap = 6;
  ReplicaChunk* next = nullptr;
  std::uint32_t n = 0;
  Replica items[kCap];
};

// One open candidate stream. Several can be open for one key (IP ID reuse
// over a long trace); they chain newest-first through `older`, mirroring the
// back-to-front scan order of the reference engine's per-key vector.
struct FlatOpenStream {
  FlatOpenStream* older = nullptr;
  ReplicaChunk* head_chunk = nullptr;
  ReplicaChunk* tail_chunk = nullptr;
  std::uint32_t count = 0;
  net::TimeNs last_ts = 0;
  std::uint8_t last_ttl = 0;
  net::Ipv4Addr dst;
  net::Prefix dst24;
  Replica inline_replicas[2];

  void push(util::Arena& arena, const Replica& r) {
    if (count < 2) {
      inline_replicas[count] = r;
    } else {
      if (tail_chunk == nullptr || tail_chunk->n == ReplicaChunk::kCap) {
        auto* chunk = arena.create<ReplicaChunk>();
        if (tail_chunk != nullptr) {
          tail_chunk->next = chunk;
        } else {
          head_chunk = chunk;
        }
        tail_chunk = chunk;
      }
      tail_chunk->items[tail_chunk->n++] = r;
    }
    ++count;
  }

  net::TimeNs start() const { return inline_replicas[0].ts; }
  // Every accepted replica updates last_ts, so last_ts is always the final
  // replica's timestamp — the stream's end.
  net::TimeNs end() const { return last_ts; }
  std::uint32_t first_record_index() const {
    return inline_replicas[0].record_index;
  }

  std::vector<Replica> materialize() const {
    std::vector<Replica> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count && i < 2; ++i) {
      out.push_back(inline_replicas[i]);
    }
    for (const ReplicaChunk* c = head_chunk; c != nullptr; c = c->next) {
      out.insert(out.end(), c->items, c->items + c->n);
    }
    return out;
  }
};

static_assert(std::is_trivially_destructible_v<FlatOpenStream>,
              "arena-allocated");
static_assert(std::is_trivially_destructible_v<ReplicaChunk>,
              "arena-allocated");

// Tier-1 slot: a first sighting, identified by its record index into the
// store (whose bytes confirm every hash hit).
struct RecordSighting {
  std::uint64_t hash = 0;
  net::TimeNs ts = 0;
  std::uint32_t index = 0;
  std::uint8_t ttl = 0;
};
using SightingTable = SightingTableOf<RecordSighting>;

static_assert(sizeof(SightingTable::Slot) <= 24, "tier-1 slot budget");

// The per-record state machine. Default-constructible and rebindable so a
// pipeline workspace can keep a pool of warm states: bind() points it at
// the current run's config/telemetry, reset() rewinds it for the next run
// while keeping every backing allocation.
struct FlatDetectState {
  using Sighting = SightingTable::Slot;

  FlatDetectState() = default;
  FlatDetectState(const ReplicaDetectorConfig& cfg, telemetry::Histogram* sp,
                  telemetry::DecisionLog* jl) {
    bind(cfg, sp, jl);
  }

  void bind(const ReplicaDetectorConfig& cfg, telemetry::Histogram* sp,
            telemetry::DecisionLog* jl) {
    config = &cfg;
    spacing = sp;
    journal = jl;
  }

  // Rewinds for the next run; the arena, both tiers and the closed vector
  // all keep their capacity (arena chunks are consolidated once, then
  // reused — see Arena::reset()).
  void reset() {
    arena.reset();
    streams.clear();
    sightings[0].clear();
    sightings[1].clear();
    closed.clear();
    counts = LocalCounts{};
    since_sweep = 0;
    generation = kNoGeneration;
    next_generation_ts = kNoGeneration;
  }

  // Heap bytes held by both tiers and the arena: the bounded-memory tests
  // pin that this follows arrival rate x stream_timeout, not trace length.
  std::size_t bytes_reserved() const {
    return arena.bytes_reserved() + streams.bytes_reserved() +
           sightings[0].bytes_reserved() + sightings[1].bytes_reserved();
  }

  const ReplicaDetectorConfig* config = nullptr;
  telemetry::Histogram* spacing = nullptr;
  telemetry::DecisionLog* journal = nullptr;

  util::Arena arena;
  // Tier 2: promoted keys, each with its chain of open streams.
  util::FlatMap<ReplicaKey, FlatOpenStream*, ReplicaKeyHash> streams;
  // Tier 1: sightings[current] holds this generation's first sightings,
  // sightings[current ^ 1] the previous generation's.
  SightingTable sightings[2];
  unsigned current = 0;
  static constexpr net::TimeNs kNoGeneration =
      std::numeric_limits<net::TimeNs>::min();
  net::TimeNs generation = kNoGeneration;
  net::TimeNs next_generation_ts = kNoGeneration;
  std::vector<Sighting*> hits;  // scratch: live tier-1 hits of one record
  std::vector<ReplicaStream> closed;
  LocalCounts counts;

  // Periodic sweep keeps tier 2 bounded by the replica population: a
  // timed-out chain can no longer be extended (the per-key expiry check
  // below closes it first), so sweep timing affects only memory and the
  // expired counter, never which streams are emitted.
  static constexpr std::uint32_t kSweepInterval = 1 << 16;
  std::uint32_t since_sweep = 0;

  void close_stream(const ReplicaKey& key, const FlatOpenStream* os) {
    if (os->count >= 2) {
      ++counts.emitted;
      telemetry::record(
          journal, {.kind = telemetry::DecisionKind::stream_emitted,
                    .dst24 = os->dst24,
                    .ts = os->end(),
                    .record_index = os->first_record_index(),
                    .detail = static_cast<std::int64_t>(os->count),
                    .detail2 = os->start()});
      ReplicaStream stream;
      stream.key = key;
      stream.dst = os->dst;
      stream.dst24 = os->dst24;
      stream.replicas = os->materialize();
      closed.push_back(std::move(stream));
    }
  }

  // Closes every timed-out stream in the chain and returns the surviving
  // chain, order preserved. Expired nodes stay in the arena (freed
  // wholesale); idempotent, as erase_if requires.
  FlatOpenStream* expire_chain(const ReplicaKey& key, FlatOpenStream* head,
                               net::TimeNs now) {
    FlatOpenStream* kept = nullptr;
    FlatOpenStream** tail = &kept;
    while (head != nullptr) {
      FlatOpenStream* next = head->older;
      if (now - head->last_ts > config->stream_timeout) {
        ++counts.expired;
        close_stream(key, head);
      } else {
        *tail = head;
        tail = &head->older;
      }
      head = next;
    }
    *tail = nullptr;
    return kept;
  }

  // Rotates tier 1 so sightings[current] is ts's generation.
  void advance_generation(net::TimeNs ts) {
    const Generation gen = generation_of(ts, config->stream_timeout);
    if (gen.index == generation) return;
    if (generation != kNoGeneration && gen.index == generation + 1) {
      counts.expired += sightings[current ^ 1].clear();
      current ^= 1;
    } else {
      counts.expired += sightings[0].clear() + sightings[1].clear();
    }
    generation = gen.index;
    next_generation_ts = gen.next_ts;
  }

  FlatOpenStream* open_stream(const RecordStore& store, std::uint32_t index,
                              net::TimeNs ts, std::uint8_t ttl) {
    auto* os = arena.create<FlatOpenStream>();
    os->dst = store.dst(index);
    os->dst24 = store.dst24(index);
    os->inline_replicas[0] = {index, ts, ttl};
    os->count = 1;
    os->last_ttl = ttl;
    os->last_ts = ts;
    return os;
  }

  // Whether an observation with `ttl` extends a stream whose last replica
  // had `last_ttl`: a loop-sized TTL drop, or an equal-TTL link-layer
  // duplicate when those are kept.
  bool extends(std::uint8_t last_ttl, std::uint8_t ttl) const {
    const int delta = static_cast<int>(last_ttl) - static_cast<int>(ttl);
    return delta >= config->min_ttl_delta ||
           (config->keep_link_layer_duplicates && delta == 0);
  }

  void extend(FlatOpenStream* os, const RecordStore& store, std::size_t i) {
    const net::TimeNs ts = store.ts(i);
    const std::uint8_t ttl = store.ttl(i);
    const auto index = static_cast<std::uint32_t>(i);
    const int delta = static_cast<int>(os->last_ttl) - static_cast<int>(ttl);
    ++counts.replicas;
    telemetry::observe(spacing, static_cast<double>(ts - os->last_ts));
    os->push(arena, {index, ts, ttl});
    os->last_ttl = ttl;  // a duplicate (delta 0) leaves it unchanged anyway
    os->last_ts = ts;
    telemetry::record(journal,
                      {.kind = telemetry::DecisionKind::replica_accepted,
                       .dst24 = store.dst24(i),
                       .ts = ts,
                       .record_index = index,
                       .detail = delta,
                       .detail2 = static_cast<std::int64_t>(os->count)});
  }

  // A live candidate stream existed for this exact header, but the TTL
  // delta disqualified the observation — the one per-packet negative
  // decision worth journaling (first-seen packets are non-decisions).
  // `newest_ttl` is the most recent live stream's last TTL.
  void reject(const RecordStore& store, std::size_t i,
              std::uint8_t newest_ttl) {
    telemetry::record(
        journal,
        {.kind = telemetry::DecisionKind::replica_rejected,
         .dst24 = store.dst24(i),
         .ts = store.ts(i),
         .record_index = static_cast<std::uint32_t>(i),
         .detail = static_cast<int>(newest_ttl) -
                   static_cast<int>(store.ttl(i))});
  }

  // Record i must have parsed (store.ok(i)); its key hash comes from the
  // store's column, so FNV runs exactly once per record on every path.
  void process(const RecordStore& store, std::size_t i) {
    ++counts.records;
    const net::TimeNs ts = store.ts(i);
    const std::uint64_t hash = store.key_hash(i);
    const std::span<const std::byte> bytes = store.bytes(i);

    if (ts >= next_generation_ts) advance_generation(ts);
    if (++since_sweep >= kSweepInterval) {
      since_sweep = 0;
      streams.erase_if([&](const ReplicaKey& k, FlatOpenStream*& head) {
        head = expire_chain(k, head, ts);
        return head == nullptr;
      });
    }

    const ReplicaKey* key = nullptr;
    const auto same_key = [&](const ReplicaKey& k) {
      if (!same_replica_bytes({k.normalized.data(), k.len}, bytes)) {
        return false;
      }
      key = &k;
      return true;
    };
    if (FlatOpenStream** chain = streams.find_hashed(hash, same_key)) {
      process_promoted(store, i, *key, *chain);
      return;
    }

    // Tier 1. Both tables are probed; the current one's chain end is where
    // this record lands if it opens a stream.
    SightingTable& now_table = sightings[current];
    now_table.reserve_one();
    hits.clear();
    const auto collect = [&](Sighting& s) {
      if (ts - s.ts <= config->stream_timeout &&
          same_replica_bytes(store.bytes(s.index), bytes)) {
        hits.push_back(&s);
      }
    };
    sightings[current ^ 1].probe(hash, collect);
    Sighting* vacancy = now_table.probe(hash, collect);

    if (!hits.empty()) {
      if (hits.size() > 1) {
        std::sort(hits.begin(), hits.end(),
                  [](const Sighting* a, const Sighting* b) {
                    return a->index < b->index;
                  });
      }
      // Newest first, as the oracle scans its per-key vector.
      for (auto it = hits.rbegin(); it != hits.rend(); ++it) {
        if (extends((*it)->ttl, store.ttl(i))) {
          promote(store, i, *it, same_key);
          return;
        }
      }
      reject(store, i, hits.back()->ttl);
    }
    ++counts.opened;
    now_table.place(vacancy, {.hash = hash,
                              .ts = ts,
                              .index = static_cast<std::uint32_t>(i),
                              .ttl = store.ttl(i)});
  }

  // Tier 2: the key already has a chain of open streams.
  void process_promoted(const RecordStore& store, std::size_t i,
                        const ReplicaKey& key, FlatOpenStream*& chain) {
    const net::TimeNs ts = store.ts(i);
    const std::uint8_t ttl = store.ttl(i);
    chain = expire_chain(key, chain, ts);
    // Try to extend the most recent compatible stream (newest first).
    for (FlatOpenStream* os = chain; os != nullptr; os = os->older) {
      if (extends(os->last_ttl, ttl)) {
        extend(os, store, i);
        return;
      }
    }
    if (chain != nullptr) reject(store, i, chain->last_ttl);
    ++counts.opened;
    FlatOpenStream* os =
        open_stream(store, static_cast<std::uint32_t>(i), ts, ttl);
    os->older = chain;
    chain = os;  // no rehash since find_hashed: the slot is still valid
  }

  // Record i is the first accepted replica of its key: every live first
  // sighting in `hits` (oldest first) becomes a stream in one new chain,
  // newest first, and `matched` is extended by record i.
  template <class SameKey>
  void promote(const RecordStore& store, std::size_t i, Sighting* matched,
               const SameKey& same_key) {
    FlatOpenStream* head = nullptr;
    FlatOpenStream** tail = &head;
    FlatOpenStream* extended = nullptr;
    for (auto it = hits.rbegin(); it != hits.rend(); ++it) {
      Sighting& s = **it;
      FlatOpenStream* os = open_stream(store, s.index, s.ts, s.ttl);
      if (&s == matched) extended = os;
      (sightings[0].owns(&s) ? sightings[0] : sightings[1]).take(s);
      *tail = os;
      tail = &os->older;
    }
    extend(extended, store, i);
    const std::uint64_t hash = store.key_hash(i);
    streams.emplace_hashed(hash, same_key,
                           make_replica_key(store.bytes(i), hash), head);
  }

  std::vector<ReplicaStream> finish() {
    streams.for_each([&](const ReplicaKey& key, FlatOpenStream*& head) {
      for (const FlatOpenStream* os = head; os != nullptr; os = os->older) {
        close_stream(key, os);
      }
    });
    streams.clear();
    sort_streams(closed);
    return std::move(closed);
  }
};

}  // namespace rloop::core::detail
