// Microbenchmarks (google-benchmark): throughput of the detector pipeline
// and its hot primitives. These bound the cost of running the method over
// backbone-scale traces (the paper processed traces of 10^8-10^9 packets
// offline).
#include <benchmark/benchmark.h>

#include <array>

#include "common.h"
#include "core/detect_state.h"
#include "core/loop_detector.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "core/streaming_detector.h"
#include "net/checksum.h"
#include "net/packet.h"
#include "routing/lpm_trie.h"
#include "telemetry/registry.h"
#include "util/random.h"

using namespace rloop;

namespace {

const net::Trace& bench_trace() { return bench::cached_trace(3); }

void BM_ParseTrace(benchmark::State& state) {
  const auto& trace = bench_trace();
  for (auto _ : state) {
    auto records = core::parse_trace(trace);
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ParseTrace)->Unit(benchmark::kMillisecond);

void BM_ReplicaDetect(benchmark::State& state) {
  const auto& trace = bench_trace();
  const core::ReplicaDetector detector;
  // Writing the store from the trace bytes is part of detection's cost, so
  // the store build stays inside the timed loop.
  for (auto _ : state) {
    const auto store = core::RecordStore::build(trace);
    auto streams = detector.detect(store);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ReplicaDetect)->Unit(benchmark::kMillisecond);

// The common path on its own: detect over a replica-free trace, where every
// record is a first sighting that never meets a replica (99 % of a backbone
// trace). 2^19 distinct packets at 10^5 packets/s with a 1 s stream timeout
// span five tier-1 generations, so the run includes table rotation. The
// `detect_bytes_per_record` counter is the engine's reserved memory (arena
// plus both tiers) over the record count: it should reflect arrival rate x
// stream_timeout, not trace length.
constexpr std::size_t kFirstSightingRecords = std::size_t{1} << 19;

const net::Trace& replica_free_trace() {
  static const net::Trace trace = [] {
    net::Trace t("replica-free", 0);
    for (std::size_t i = 0; i < kFirstSightingRecords; ++i) {
      const auto pkt = net::make_tcp_packet(
          net::Ipv4Addr(198, 51, 100, static_cast<std::uint8_t>(i)),
          net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                        static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)),
          static_cast<std::uint16_t>(1024 + (i & 0x7fff)), 80,
          static_cast<std::uint32_t>(i), 0, net::kTcpAck, 0, 64,
          static_cast<std::uint16_t>(i));
      t.add(static_cast<net::TimeNs>(i) * 10 * net::kMicrosecond, pkt,
            pkt.ip.total_length);
    }
    return t;
  }();
  return trace;
}

const core::RecordStore& replica_free_store() {
  static const core::RecordStore store =
      core::RecordStore::build(replica_free_trace());
  return store;
}

void BM_DetectFirstSightings(benchmark::State& state) {
  const core::RecordStore& store = replica_free_store();
  core::ReplicaDetectorConfig config;
  config.stream_timeout = net::kSecond;
  const core::ReplicaDetector detector(config);
  for (auto _ : state) {
    auto streams = detector.detect(store);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
  // The same engine run once more, outside the timed loop, for its memory.
  core::detail::FlatDetectState detect(config, nullptr, nullptr);
  for (std::size_t i = 0; i < store.size(); ++i) detect.process(store, i);
  state.counters["detect_bytes_per_record"] =
      static_cast<double>(detect.bytes_reserved()) /
      static_cast<double>(store.size());
}
BENCHMARK(BM_DetectFirstSightings)->Unit(benchmark::kMillisecond);

// The same replica-free trace through the online detector, packet by
// packet as rloopd feeds it: every packet is a tier-1 first sighting. The
// `bytes_per_packet` counter is the detector's reserved memory (both tiers,
// hold-downs and suspects) over the packet count.
void BM_StreamingFirstSightings(benchmark::State& state) {
  const net::Trace& trace = replica_free_trace();
  core::StreamingConfig config;
  config.stream_timeout = net::kSecond;
  std::size_t bytes = 0;
  for (auto _ : state) {
    core::StreamingDetector detector(config, nullptr);
    for (const auto& rec : trace.records()) {
      detector.on_packet(rec.ts, rec.bytes());
    }
    benchmark::DoNotOptimize(detector.alerts_raised());
    bytes = detector.bytes_reserved();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["bytes_per_packet"] =
      static_cast<double>(bytes) / static_cast<double>(trace.size());
}
BENCHMARK(BM_StreamingFirstSightings)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const auto& trace = bench_trace();
  for (auto _ : state) {
    auto result = core::detect_loops(trace);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

// Telemetry-overhead guard: same pipeline with a live registry. Compare
// items/s against BM_FullPipeline (the null-registry mode) — the gap is the
// cost of instrumentation and must stay under ~2%.
void BM_FullPipelineTelemetry(benchmark::State& state) {
  const auto& trace = bench_trace();
  telemetry::Registry registry;
  core::LoopDetectorConfig config;
  config.registry = &registry;
  for (auto _ : state) {
    auto result = core::detect_loops(trace, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineTelemetry)->Unit(benchmark::kMillisecond);

// Tracing-overhead guard: pipeline with a span sink AND a decision journal
// attached. BM_FullPipeline is the disabled-path baseline (null sink = one
// predictable branch per span/decision site); the gap between the two pins
// the zero-overhead claim in the docs. Sink and journal are constructed
// outside the loop — they retain events across iterations (bounded by their
// capacities), matching how a real run holds one sink for a whole trace.
void BM_FullPipelineTraced(benchmark::State& state) {
  const auto& trace = bench_trace();
  telemetry::TraceSink sink;
  telemetry::DecisionLog journal;
  core::LoopDetectorConfig config;
  config.trace = &sink;
  config.journal = &journal;
  for (auto _ : state) {
    auto result = core::detect_loops(trace, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineTraced)->Unit(benchmark::kMillisecond);

// Sharded pipeline at N threads (0 = serial path for a same-harness
// baseline). Output is bit-identical to serial; see bench/parallel_scaling
// for the dedicated speedup harness.
void BM_FullPipelineParallel(benchmark::State& state) {
  const auto& trace = bench_trace();
  core::LoopDetectorConfig config;
  config.parallel.num_threads = static_cast<unsigned>(state.range(0));
  config.parallel.shard_bits = 4;
  for (auto _ : state) {
    auto result = core::detect_loops(trace, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_StreamingDetector(benchmark::State& state) {
  const auto& trace = bench_trace();
  for (auto _ : state) {
    core::StreamingDetector detector({}, nullptr);
    for (const auto& rec : trace.records()) {
      detector.on_packet(rec.ts, rec.bytes());
    }
    benchmark::DoNotOptimize(detector.alerts_raised());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_StreamingDetector)->Unit(benchmark::kMillisecond);

// Telemetry-overhead guard for the per-packet streaming hot path (counter
// increments + open-entry gauge per packet).
void BM_StreamingDetectorTelemetry(benchmark::State& state) {
  const auto& trace = bench_trace();
  telemetry::Registry registry;
  for (auto _ : state) {
    core::StreamingDetector detector({}, nullptr, &registry);
    for (const auto& rec : trace.records()) {
      detector.on_packet(rec.ts, rec.bytes());
    }
    benchmark::DoNotOptimize(detector.alerts_raised());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_StreamingDetectorTelemetry)->Unit(benchmark::kMillisecond);

void BM_ReplicaKey(benchmark::State& state) {
  const auto pkt = net::make_tcp_packet(net::Ipv4Addr(1, 2, 3, 4),
                                        net::Ipv4Addr(5, 6, 7, 8), 1000, 80,
                                        42, 43, net::kTcpAck, 100, 64, 7);
  std::array<std::byte, net::kMaxHeaderBytes> buf{};
  const auto len = net::serialize_packet(pkt, buf);
  for (auto _ : state) {
    auto key = core::make_replica_key(
        std::span<const std::byte>(buf.data(), len));
    benchmark::DoNotOptimize(key);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReplicaKey);

void BM_InternetChecksum(benchmark::State& state) {
  std::array<std::byte, 1500> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_InternetChecksum);

void BM_IncrementalChecksum(benchmark::State& state) {
  std::uint16_t checksum = 0x1234;
  std::uint16_t word = 0x4006;
  for (auto _ : state) {
    checksum = net::incremental_checksum_update(
        checksum, word, static_cast<std::uint16_t>(word - 0x0100));
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalChecksum);

void BM_LpmLookup(benchmark::State& state) {
  routing::LpmTrie trie;
  util::Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    trie.insert(net::Prefix::of(
                    net::Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                    static_cast<std::uint8_t>(rng.uniform_int(8, 24))),
                static_cast<std::uint32_t>(i));
  }
  std::uint32_t probe = 0x12345678;
  for (auto _ : state) {
    probe = probe * 2654435761u + 1;
    benchmark::DoNotOptimize(trie.lookup(net::Ipv4Addr{probe}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LpmLookup)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
