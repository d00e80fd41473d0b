// Differential proof for the hot-path memory overhaul.
//
// The flat-table/arena detector (ReplicaDetector::detect), the SoA
// RecordStore, and the flat NonLoopedIndex are all optimizations with an
// exact-behavior contract: field-identical output to the straightforward
// structures they replaced. reference_detector.h keeps the pre-overhaul
// engine as the oracle; these tests diff the two on synthetic, fuzzed and
// adversarial traces (forced hash collisions, timeout and generation
// boundaries, IP-ID reuse), serially and through the sharded pipeline, and
// pin the allocation win, the bounded detect memory the two-tier open set
// exists for, and the absence of any per-record ParsedRecord array on the
// detect_loops paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/detect_state.h"
#include "core/loop_detector.h"
#include "core/pipeline.h"
#include "core/prefix_index.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "net/trace.h"
#include "reference_detector.h"
#include "result_equality.h"
#include "trace_builder.h"
#include "util/random.h"

namespace {
// Global allocation counter for the arena/flat-map win assertion, and the
// largest single request seen (reset by the tests that read it). Relaxed
// atomics: counts are read only after the counted section has joined.
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::size_t> g_largest_request{0};

void count_request(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_request.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  count_request(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  count_request(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: libstdc++'s std::get_temporary_buffer
// (stable_sort's merge buffer) allocates with nothrow new but releases through
// plain operator delete — leaving these to the runtime while overriding the
// plain forms above is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_request(size);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  count_request(size);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

namespace {
// Every replaced operator new above allocates with malloc, so free is the
// matching release. Kept out of line: once inlined into a caller, the
// compiler sees free() applied to a pointer it knows came from operator new
// and warns (-Wmismatched-new-delete) about a mismatch that is not there.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}

namespace rloop::core {
namespace {

using rloop::testing::TraceBuilder;
using rloop::testing::expect_equal_stream_vectors;
using rloop::testing::reference_detect;

// A trace mixing every branch of the per-key state machine: clean loops,
// equal-TTL duplicates, TTL increases, timeout splits, malformed records,
// many keys colliding on the same destination /24.
net::Trace& synthetic_trace(TraceBuilder& builder) {
  net::TimeNs t = 0;
  // Clean replica streams of varying length and hop count.
  builder.replica_stream(t, net::Ipv4Addr(10, 1, 1, 1), 200, 7, 6, 2,
                         50 * net::kMillisecond);
  builder.replica_stream(t + net::kSecond, net::Ipv4Addr(10, 1, 1, 9), 150,
                         8, 12, 3, 20 * net::kMillisecond);
  // Same key re-observed after a quiet gap past stream_timeout: two streams.
  builder.replica_stream(t, net::Ipv4Addr(10, 2, 2, 2), 120, 21, 4, 2,
                         30 * net::kMillisecond);
  builder.replica_stream(t + 30 * net::kSecond, net::Ipv4Addr(10, 2, 2, 2),
                         120, 21, 4, 2, 30 * net::kMillisecond);
  // Equal-TTL duplicates inside a loop (link-layer copies).
  builder.packet(t, net::Ipv4Addr(10, 3, 3, 3), 90, 5);
  builder.packet(t + net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 90, 5);
  builder.packet(t + 2 * net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 88, 5);
  builder.packet(t + 3 * net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 86, 5);
  // TTL increase: retransmission reusing the IP-ID, must split the stream.
  builder.packet(t, net::Ipv4Addr(10, 4, 4, 4), 60, 99);
  builder.packet(t + net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 58, 99);
  builder.packet(t + 2 * net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 64,
                 99);
  builder.packet(t + 3 * net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 62,
                 99);
  // Background singletons and malformed records.
  for (int i = 0; i < 200; ++i) {
    builder.packet(t + i * net::kMillisecond,
                   net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(i), 1),
                   64, static_cast<std::uint16_t>(1000 + i));
  }
  builder.raw(t + 5 * net::kMillisecond, std::vector<std::byte>(7));
  builder.raw(t + 6 * net::kMillisecond, {});
  return builder.trace();
}

// The fuzz generator from tests/test_fuzz.cc: random mixes of decreases,
// increases, duplicates, and timeout gaps over a pool of destinations.
net::Trace& fuzz_trace(TraceBuilder& builder, std::uint64_t seed) {
  util::Rng rng(seed);
  net::TimeNs t = 0;
  for (int burst = 0; burst < 120; ++burst) {
    const net::Ipv4Addr dst(static_cast<std::uint8_t>(rng.uniform_int(1, 223)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                            10);
    const auto ip_id = static_cast<std::uint16_t>(
        rng.bernoulli(0.3) ? 65533 + rng.uniform_int(0, 5)
                           : rng.uniform_int(0, 65535));
    auto ttl = static_cast<int>(rng.uniform_int(2, 255));
    const int len = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < len; ++i) {
      builder.packet(t, dst, static_cast<std::uint8_t>(ttl), ip_id);
      switch (rng.uniform_int(0, 4)) {
        case 0:
          ttl = std::max(2, ttl - static_cast<int>(rng.uniform_int(1, 3)));
          break;
        case 1:
          ttl = std::min(255, ttl + static_cast<int>(rng.uniform_int(1, 64)));
          break;
        case 2:
          break;
        case 3:
          t += 11 * net::kSecond;
          break;
        default:
          ttl = std::max(2, ttl - 1);
          break;
      }
      t += static_cast<net::TimeNs>(rng.uniform_int(1, 2'000'000));
    }
    if (rng.bernoulli(0.1)) {
      builder.raw(t, std::vector<std::byte>(
                         static_cast<std::size_t>(rng.uniform_int(0, 30))));
    }
  }
  return builder.trace();
}

TEST(MemoryLayout, FlatDetectorMatchesReferenceOnSyntheticTrace) {
  TraceBuilder builder;
  const net::Trace& trace = synthetic_trace(builder);
  const auto records = parse_trace(trace);

  const auto reference = reference_detect(trace, records);
  const auto flat =
      ReplicaDetector().detect(RecordStore::build(trace));
  ASSERT_GT(reference.size(), 4u) << "fixture must exercise the detector";
  expect_equal_stream_vectors(reference, flat, "streams");
}

TEST(MemoryLayout, FlatDetectorMatchesReferenceOnFuzzedTraces) {
  for (const std::uint64_t seed : {3u, 17u, 101u, 443u, 1009u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceBuilder builder;
    const net::Trace& trace = fuzz_trace(builder, seed);
    const auto records = parse_trace(trace);

    expect_equal_stream_vectors(
        reference_detect(trace, records),
        ReplicaDetector().detect(RecordStore::build(trace)),
        "streams");
  }
}

// The sharded detect that ships is the pipeline's (core/pipeline.cc): diff
// its raw streams against the oracle across shard counts.
TEST(MemoryLayout, ShardedFlatDetectorMatchesReferenceAcrossShardCounts) {
  for (const std::uint64_t seed : {17u, 101u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceBuilder builder;
    const net::Trace& trace = fuzz_trace(builder, seed);
    const auto reference = reference_detect(trace, parse_trace(trace));
    for (const unsigned bits : {1u, 2u, 3u}) {
      SCOPED_TRACE("shard_bits=" + std::to_string(bits));
      LoopDetectorConfig config;
      config.parallel.num_threads = 4;
      config.parallel.shard_bits = bits;
      expect_equal_stream_vectors(reference,
                                  detect_loops(trace, config).raw_streams,
                                  "streams");
    }
  }
}

// --- Adversarial differentials for the two-tier open set -------------------

// Diffs the serial detector and the pipelined front (shard_bits 1-3)
// against the oracle on `trace` under `detector`.
void expect_detectors_match_reference(const net::Trace& trace,
                                      const ReplicaDetectorConfig& detector) {
  const auto records = parse_trace(trace);
  const auto reference = reference_detect(trace, records, detector);
  expect_equal_stream_vectors(
      reference,
      ReplicaDetector(detector).detect(RecordStore::build(trace)),
      "serial");
  for (const unsigned bits : {1u, 2u, 3u}) {
    SCOPED_TRACE("shard_bits=" + std::to_string(bits));
    LoopDetectorConfig config;
    config.detector = detector;
    config.parallel.num_threads = 4;
    config.parallel.shard_bits = bits;
    expect_equal_stream_vectors(
        reference, detect_loops(trace, config).raw_streams, "pipelined");
  }
}

// A store whose key_hash column is `forced(true hash)` instead of the true
// hash. `forced` must be a function of the hash (hence of the key bytes), so
// every replica of one packet still shares a hash, but it may map every key
// onto a handful of values: then every lookup is a hash hit, and only the
// byte-exact compare keeps distinct packets apart.
RecordStore store_with_forced_hashes(
    const net::Trace& trace,
    const std::function<std::uint64_t(std::uint64_t)>& forced) {
  RecordStore store;
  store.prepare(trace, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    store.set_row(i, trace[i], forced(replica_key_hash(trace[i].bytes())));
  }
  return store;
}

TEST(MemoryLayout, ForcedHashCollisionsNeverMergeDistinctPackets) {
  const std::vector<
      std::pair<const char*, std::function<std::uint64_t(std::uint64_t)>>>
      hashings = {
          {"one constant", [](std::uint64_t) { return 0x5eedULL; }},
          {"two alternating constants",
           [](std::uint64_t h) { return (h & 1) ? 0xa11ceULL : 0xb0bULL; }},
      };
  for (const std::uint64_t seed : {0u, 17u, 101u}) {
    TraceBuilder builder;
    const net::Trace& trace =
        seed == 0 ? synthetic_trace(builder) : fuzz_trace(builder, seed);
    const auto records = parse_trace(trace);
    const auto reference = reference_detect(trace, records);
    ASSERT_GT(reference.size(), 2u) << "fixture must exercise the detector";
    for (const auto& [name, forced] : hashings) {
      SCOPED_TRACE(std::string(name) + " seed=" + std::to_string(seed));
      // The emitted key carries the store's hash; everything else must
      // match the oracle exactly.
      auto expected = reference;
      for (auto& stream : expected) stream.key.hash = forced(stream.key.hash);
      expect_equal_stream_vectors(
          expected,
          ReplicaDetector().detect(
              store_with_forced_hashes(trace, forced)),
          "serial");
    }
    expect_detectors_match_reference(trace, {});
  }
}

// Growing the tier-1 table can reorder same-hash sightings (a probe chain
// that wrapped past the end of the old slot array is re-inserted wrapped
// part first). With every hash forced onto the last slot of the initial
// table, two live sightings of one header straddle the wrap when the table
// grows; the replica that follows must still extend the newer one.
TEST(MemoryLayout, TableGrowthKeepsNewestFirstScanOrder) {
  std::uint64_t last_slot = 1;
  while ((util::detail::fmix64(last_slot) & 1023) != 1023) ++last_slot;

  TraceBuilder builder;
  const net::Ipv4Addr dst(10, 8, 8, 8);
  builder.packet(0, dst, 60, 9);                     // older sighting
  builder.packet(net::kMicrosecond, dst, 61, 9);     // newer: TTL up by one
  for (int i = 2; i < 700; ++i) {  // past one growth (512), short of two
    builder.packet(i * net::kMicrosecond, dst, 64,
                   static_cast<std::uint16_t>(10 + i));
  }
  builder.packet(700 * net::kMicrosecond, dst, 58, 9);  // extends either
  const net::Trace& trace = builder.trace();
  const auto records = parse_trace(trace);

  auto expected = reference_detect(trace, records);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(expected[0].replicas.front().record_index, 1u);
  expected[0].key.hash = last_slot;
  expect_equal_stream_vectors(
      expected,
      ReplicaDetector().detect(store_with_forced_hashes(
          trace, [&](std::uint64_t) { return last_slot; })),
      "serial");
}

// Replicas exactly stream_timeout and stream_timeout + 1 ns apart, records
// at k*T - 1, k*T and k*T + 1 (the tier-1 generation boundaries), and gaps
// of 2T and more, which clear both generations at once.
net::Trace& timeout_boundary_trace(TraceBuilder& builder, net::TimeNs timeout) {
  const net::TimeNs t = timeout;
  std::uint16_t id = 1;
  const auto dst = [](int k) {
    return net::Ipv4Addr(10, 9, static_cast<std::uint8_t>(k), 1);
  };
  for (int k = 1; k <= 4; ++k) {
    for (const net::TimeNs base : {k * t - 1, k * t, k * t + 1}) {
      // Exactly T apart: still live, across one generation boundary.
      builder.packet(base, dst(k), 100, id);
      builder.packet(base + t, dst(k), 98, id);
      builder.packet(base + t + 1, dst(k), 96, id);
      ++id;
      // T + 1 apart: expired, two singletons, then a fresh stream.
      builder.packet(base, dst(k), 100, id);
      builder.packet(base + t + 1, dst(k), 98, id);
      builder.packet(base + t + 2, dst(k), 96, id);
      ++id;
      // Within one generation or straddling into the next.
      builder.packet(base, dst(k), 90, id);
      builder.packet(base + 1, dst(k), 88, id);
      ++id;
    }
  }
  // Gaps of >= 2T between consecutive records: both generations clear.
  net::TimeNs ts = 20 * t;
  for (const net::TimeNs gap : {2 * t, 2 * t + 1, 5 * t, 2 * t - 1}) {
    builder.packet(ts, dst(50), 64, id);
    builder.packet(ts + 1, dst(50), 62, id);  // promoted, then left to expire
    builder.packet(ts + 2, dst(51), 64, static_cast<std::uint16_t>(id + 1));
    ts += gap;
    builder.packet(ts, dst(50), 60, id);  // past the timeout: fresh sighting
    builder.packet(ts, dst(51), 62, static_cast<std::uint16_t>(id + 1));
    builder.packet(ts + 1, dst(51), 60, static_cast<std::uint16_t>(id + 1));
    id = static_cast<std::uint16_t>(id + 2);
  }
  return builder.trace();
}

TEST(MemoryLayout, TimeoutAndGenerationBoundariesMatchReference) {
  for (const net::TimeNs timeout :
       {10 * net::kSecond, net::kMillisecond, net::TimeNs{7}}) {
    SCOPED_TRACE("stream_timeout=" + std::to_string(timeout));
    TraceBuilder builder;
    const net::Trace& trace = timeout_boundary_trace(builder, timeout);
    ReplicaDetectorConfig detector;
    detector.stream_timeout = timeout;
    ASSERT_GT(reference_detect(trace, parse_trace(trace), detector).size(),
              10u);
    expect_detectors_match_reference(trace, detector);
  }
}

// Several live first sightings of one header (IP-ID reuse): TTLs that do
// not extend each other keep each a separate candidate, and the replica
// that promotes the key matches the middle one, so promotion must carry the
// newer and the older sighting into the chain in the oracle's order.
TEST(MemoryLayout, IpIdReusePromotesEveryLiveSightingInOrder) {
  TraceBuilder builder;
  const net::Ipv4Addr dst(10, 7, 7, 7);
  const net::TimeNs ms = net::kMillisecond;
  // Stale sighting: a TTL drop of 3 would extend it, but it is 11 s old.
  builder.packet(0, dst, 61, 4242);
  const net::TimeNs t = 11 * net::kSecond;
  builder.packet(t, dst, 40, 4242);           // oldest live
  builder.packet(t + 1 * ms, dst, 60, 4242);  // middle: TTL up, new sighting
  builder.packet(t + 2 * ms, dst, 59, 4242);  // newest: delta 1, new sighting
  builder.packet(t + 3 * ms, dst, 58, 4242);  // delta 1 to newest, 2 to middle
  builder.packet(t + 4 * ms, dst, 56, 4242);  // extends the newest (59 -> 56)
  builder.packet(t + 5 * ms, dst, 200, 4242);  // joins the chain as a sighting
  builder.packet(t + 6 * ms, dst, 38, 4242);   // extends newest compatible
  builder.packet(t + 7 * ms, dst, 40, 4242);   // equal-TTL duplicate somewhere
  // The same shape with the replica matching the oldest sighting instead.
  builder.packet(t, dst, 80, 777);
  builder.packet(t + 1 * ms, dst, 90, 777);
  builder.packet(t + 2 * ms, dst, 89, 777);
  builder.packet(t + 3 * ms, dst, 78, 777);
  const net::Trace& trace = builder.trace();

  const auto reference = reference_detect(trace, parse_trace(trace));
  ASSERT_GE(reference.size(), 3u);
  expect_detectors_match_reference(trace, {});
  // And with equal-TTL duplicates off, which changes which sighting the
  // duplicate may extend.
  ReplicaDetectorConfig no_duplicates;
  no_duplicates.keep_link_layer_duplicates = false;
  expect_detectors_match_reference(trace, no_duplicates);
}

// Detect memory follows arrival rate x stream_timeout, not trace length: on
// a replica-free trace, four times the records at the same packet rate must
// not grow the engine's reserved bytes (arena plus both tiers).
TEST(MemoryLayout, FirstSightingMemoryDoesNotGrowWithTraceLength) {
  ReplicaDetectorConfig detector;
  detector.stream_timeout = 100 * net::kMillisecond;
  const net::TimeNs spacing = 100 * net::kMicrosecond;  // 10^4 packets/s
  const auto reserved_after = [&](std::size_t n) {
    net::Trace trace("replica-free", 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto pkt = net::make_udp_packet(
          net::Ipv4Addr(198, 51, 100, 1),
          net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                        static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)),
          1000, 2000, 64, 64, static_cast<std::uint16_t>(i));
      trace.add(static_cast<net::TimeNs>(i) * spacing, pkt,
                pkt.ip.total_length);
    }
    const auto store = RecordStore::build(trace);
    detail::FlatDetectState state(detector, nullptr, nullptr);
    for (std::size_t i = 0; i < n; ++i) state.process(store, i);
    EXPECT_EQ(state.counts.opened, n);
    EXPECT_EQ(state.counts.replicas, 0u);
    const std::size_t bytes = state.bytes_reserved();
    EXPECT_TRUE(state.finish().empty());
    return bytes;
  };
  constexpr std::size_t kN = 20'000;  // 2 s: twenty generations
  const std::size_t small = reserved_after(kN);
  const std::size_t large = reserved_after(4 * kN);
  EXPECT_LE(large * 4, small * 5) << "N: " << small << " B, 4N: " << large
                                  << " B";
  // Well under one tier-1 slot per record of the longer trace.
  EXPECT_LT(large, 4 * kN * sizeof(detail::SightingTable::Slot));
}

// IP-header shapes at and around every rejection in Ipv4Header::parse, plus
// headers that parse while their transport header does not: RecordStore's
// fused row writer must mark !ok exactly the records parse_packet rejects.
// Returns how many of the added records fail to parse.
std::size_t add_malformed_corpus(TraceBuilder& builder, net::TimeNs t) {
  const auto tcp = net::make_tcp_packet(
      net::Ipv4Addr(198, 51, 100, 7), net::Ipv4Addr(10, 6, 6, 6), 1000, 80,
      1, 2, net::kTcpSyn, 0, 64, 7);
  std::vector<std::byte> good(net::kMaxHeaderBytes);
  net::serialize_packet(tcp, good);
  std::size_t failures = 0;
  const auto add = [&](bool fails, auto&& mutate) {
    auto bytes = good;
    mutate(bytes);
    builder.raw(t++, std::move(bytes));
    if (fails) ++failures;
  };
  using Bytes = std::vector<std::byte>;
  add(true, [](Bytes& b) { b[0] = std::byte{0x65}; });  // version 6
  add(true, [](Bytes& b) { b[0] = std::byte{0x44}; });  // IHL 4 < 5
  add(true, [](Bytes& b) { b[0] = std::byte{0x40}; });  // IHL 0
  add(true, [](Bytes& b) {  // IHL 6 with a 20-byte capture
    b[0] = std::byte{0x46};
    b.resize(20);
  });
  add(false, [](Bytes& b) { b[0] = std::byte{0x46}; });  // IHL 6, captured
  add(true, [](Bytes& b) {  // total_length 19 < header
    b[2] = std::byte{0};
    b[3] = std::byte{19};
  });
  add(false, [](Bytes& b) {  // total_length == header
    b[2] = std::byte{0};
    b[3] = std::byte{20};
  });
  add(true, [](Bytes& b) { b.resize(19); });  // cap_len < 20
  add(true, [](Bytes& b) { b.clear(); });     // nothing captured
  add(false, [](Bytes& b) {  // non-first fragment: no transport header
    b[6] = std::byte{0x20};
    b[7] = std::byte{0xb9};
  });
  add(false, [](Bytes& b) { b.resize(30); });  // truncated TCP header
  return failures;
}

TEST(MemoryLayout, RecordStoreColumnsMatchParsedRecords) {
  TraceBuilder builder;
  synthetic_trace(builder);
  const std::size_t corpus_failures =
      add_malformed_corpus(builder, 7 * net::kMillisecond);
  const net::Trace& trace = builder.trace();
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace);

  ASSERT_EQ(store.size(), records.size());
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(store.ok(i), records[i].ok) << i;
    EXPECT_EQ(store.ts(i), records[i].ts) << i;
    EXPECT_EQ(store.ttl(i), records[i].pkt.ip.ttl) << i;
    EXPECT_EQ(store.dst(i), records[i].pkt.ip.dst) << i;
    EXPECT_EQ(store.dst24_key(i),
              (std::uint64_t{records[i].dst24.addr.value} << 8) | 24u)
        << i;
    EXPECT_EQ(store.bytes(i).size(), trace[i].bytes().size()) << i;
    EXPECT_EQ(store.key_hash(i) == 0, !records[i].ok) << i;
    if (!records[i].ok) {
      ++failures;
      continue;
    }
    EXPECT_TRUE(store.dst24(i) == records[i].dst24) << i;
    EXPECT_EQ(store.key_hash(i), replica_key_hash(trace[i].bytes())) << i;
  }
  // The synthetic trace's two short raw records plus the corpus rejections.
  EXPECT_EQ(failures, 2 + corpus_failures);
  EXPECT_EQ(store.parse_failures(), failures);
  EXPECT_EQ(detect_loops(trace).parse_failures, failures);
}

// Oracle for the flat NonLoopedIndex: the hash-map-of-vectors layout it
// replaced, rebuilt here in its simplest possible form.
class MapIndexOracle {
 public:
  MapIndexOracle(const std::vector<ParsedRecord>& records,
                 const std::vector<bool>& is_member) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].ok || is_member[i]) continue;
      by_prefix_[records[i].dst24].push_back(records[i].ts);
    }
  }

  std::optional<net::TimeNs> first_in(const net::Prefix& prefix24,
                                      net::TimeNs from, net::TimeNs to) const {
    const auto it = by_prefix_.find(prefix24);
    if (it == by_prefix_.end()) return std::nullopt;
    const auto& ts = it->second;  // in time order: records arrive sorted
    const auto lo = std::lower_bound(ts.begin(), ts.end(), from);
    if (lo == ts.end() || *lo > to) return std::nullopt;
    return *lo;
  }

  std::size_t prefix_count() const { return by_prefix_.size(); }

 private:
  std::unordered_map<net::Prefix, std::vector<net::TimeNs>> by_prefix_;
};

TEST(MemoryLayout, FlatIndexMatchesHashMapOracle) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 57);
  const auto records = parse_trace(trace);

  // Mark a deterministic pseudo-random subset as stream members so both
  // member and non-member records exist for every prefix mix.
  util::Rng rng(58);
  std::vector<bool> member(records.size(), false);
  for (std::size_t i = 0; i < member.size(); ++i) {
    member[i] = rng.bernoulli(0.3);
  }

  const NonLoopedIndex index(RecordStore::build(trace), member);
  const MapIndexOracle oracle(records, member);
  EXPECT_EQ(index.prefix_count(), oracle.prefix_count());

  // Query every record's own prefix around its own timestamp, plus random
  // windows (including empty and inverted ones).
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].ok) continue;
    const auto& p = records[i].dst24;
    const net::TimeNs ts = records[i].ts;
    for (const auto& [from, to] :
         {std::pair<net::TimeNs, net::TimeNs>{ts, ts},
          {ts - net::kSecond, ts + net::kSecond},
          {ts + 1, ts + net::kSecond},
          {ts, ts - 1}}) {
      const auto got = index.first_in(p, from, to);
      const auto want = oracle.first_in(p, from, to);
      EXPECT_EQ(got, want) << "record " << i;
      EXPECT_EQ(index.any_in(p, from, to), want.has_value()) << "record " << i;
    }
  }
}

TEST(MemoryLayout, FlatEngineAllocatesFarLessThanReference) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 201);
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace);
  const ReplicaDetector detector;

  // Warm both paths once so one-time setup does not skew the counts.
  (void)reference_detect(trace, records);
  (void)detector.detect(store);

  const auto count = [&](auto&& fn) {
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const auto ref_allocs =
      count([&] { (void)reference_detect(trace, records); });
  const auto flat_allocs = count([&] { (void)detector.detect(store); });

  // The arena + flat table exist to collapse the per-key node and per-stream
  // vector churn; require at least a 2x reduction so a regression that
  // quietly reintroduces per-record allocation fails here.
  EXPECT_LT(flat_allocs * 2, ref_allocs)
      << "flat=" << flat_allocs << " reference=" << ref_allocs;
  EXPECT_GT(ref_allocs, 100u) << "fixture too small to measure allocation";
}

TEST(MemoryLayout, WarmPipelineAllocatesNoMoreThanSerial) {
  // The staged dataflow's whole point of carrying a workspace: once warm,
  // a parallel run's per-call allocation (pool reused, columns reused, batch
  // rings reused, per-shard arenas rewound in place, validator/merger
  // scratch reused) must not exceed the serial path's — parallelism may not
  // buy its speed with allocator churn. bench_to_json gates the same claim
  // on the big cached trace; this pins it in the fast tier.
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 202);

  LoopDetectorConfig serial_config;
  PipelineWorkspace workspace;
  LoopDetectorConfig parallel_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.parallel.shard_bits = 2;
  parallel_config.workspace = &workspace;

  // Warm both paths twice: the first parallel run builds the pool and sizes
  // every buffer, the second proves the sizing stuck.
  (void)detect_loops(trace, serial_config);
  (void)detect_loops(trace, parallel_config);
  (void)detect_loops(trace, parallel_config);

  const auto count = [&](auto&& fn) {
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const auto serial_allocs =
      count([&] { (void)detect_loops(trace, serial_config); });
  const auto parallel_allocs =
      count([&] { (void)detect_loops(trace, parallel_config); });

  EXPECT_LE(parallel_allocs, serial_allocs)
      << "warm parallel=" << parallel_allocs << " serial=" << serial_allocs;
  EXPECT_GT(serial_allocs, 10u) << "fixture too small to measure allocation";
}

// Largest single operator-new request made while `fn` runs.
template <typename Fn>
std::size_t largest_request(Fn&& fn) {
  g_largest_request.store(0, std::memory_order_relaxed);
  fn();
  return g_largest_request.load(std::memory_order_relaxed);
}

// detect_loops keeps one narrow column per scanned field and nothing
// record-wide: no allocation it makes, serially or warm through the
// pipeline, may be as large as one ParsedRecord per record.
TEST(MemoryLayout, DetectLoopsAllocatesNoParsedRecordArray) {
  constexpr std::size_t kN = 20'000;
  net::Trace trace("columns", 0);
  for (std::size_t i = 0; i < kN; ++i) {
    const auto pkt = net::make_udp_packet(
        net::Ipv4Addr(198, 51, 100, 1),
        net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 12),
                      static_cast<std::uint8_t>(i >> 4), 1),
        1000, 2000, 64, static_cast<std::uint8_t>(64 - 2 * (i % 3)),
        static_cast<std::uint16_t>(i / 3));
    trace.add(static_cast<net::TimeNs>(i) * net::kMillisecond, pkt,
              pkt.ip.total_length);
  }
  const std::size_t record_array = sizeof(ParsedRecord) * kN;

  LoopDetectorConfig serial_config;
  std::size_t loops = 0;
  const std::size_t serial = largest_request(
      [&] { loops = detect_loops(trace, serial_config).loops.size(); });
  ASSERT_GT(loops, 0u) << "fixture must reach validate and merge";
  EXPECT_LT(serial, record_array) << "serial, largest " << serial << " B";

  PipelineWorkspace workspace;
  LoopDetectorConfig parallel_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.workspace = &workspace;
  (void)detect_loops(trace, parallel_config);
  const std::size_t warm = largest_request(
      [&] { (void)detect_loops(trace, parallel_config); });
  EXPECT_LT(warm, record_array) << "warm pipelined, largest " << warm << " B";
}

// A pcap buffer of `n` raw-IP records (28-byte UDP headers).
std::vector<std::byte> pcap_buffer(std::size_t n) {
  std::vector<std::byte> out;
  const auto put32 = [&](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::byte>((v >> (8 * b)) & 0xff));
    }
  };
  put32(net::kPcapMagicNanos);
  put32(0x00040002);  // version 2.4
  put32(0);           // thiszone
  put32(0);           // sigfigs
  put32(65535);       // snaplen
  put32(net::kLinktypeRaw);
  std::array<std::byte, net::kMaxHeaderBytes> bytes{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto pkt = net::make_udp_packet(
        net::Ipv4Addr(198, 51, 100, 1), net::Ipv4Addr(10, 0, 0, 1), 1000,
        2000, 64, 64, static_cast<std::uint16_t>(i));
    const std::size_t len = net::serialize_packet(pkt, bytes);
    put32(1'000'000'000);
    put32(static_cast<std::uint32_t>(i));
    put32(static_cast<std::uint32_t>(len));
    put32(pkt.ip.total_length);
    out.insert(out.end(), bytes.begin(), bytes.begin() + len);
  }
  return out;
}

// parse_pcap_buffer sizes the trace once from the record headers: the
// allocation count does not grow with the record count.
TEST(MemoryLayout, PcapBufferSizesTraceOnce) {
  const auto allocs_for = [](std::size_t n) {
    const auto buffer = pcap_buffer(n);
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    const net::Trace trace = net::parse_pcap_buffer(buffer, "buffer");
    const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(trace.size(), n);
    return allocs;
  };
  const auto small = allocs_for(100);
  const auto large = allocs_for(10'000);
  EXPECT_EQ(large, small);
}

}  // namespace
}  // namespace rloop::core
