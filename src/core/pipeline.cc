#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detect_state.h"
#include "core/record_store.h"
#include "core/replica_key.h"
#include "telemetry/counter.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/spsc_ring.h"
#include "util/thread_pool.h"

namespace rloop::core {

namespace {

// Records per epoch. Large enough that per-epoch synchronization (one ring
// push per worker per epoch) is noise against the per-record work; small
// enough that the driver's read-ahead (at most kRingDepth epochs per worker)
// keeps the hash/shard scratch it touches within cache reach of the workers
// consuming it.
constexpr std::size_t kEpochRecords = std::size_t{1} << 15;
constexpr std::size_t kRingDepth = 8;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One epoch's work for one worker: the record indices (in trace order) whose
// shards that worker owns. Recycled through the worker's free ring; the
// index vector keeps its capacity across epochs and across runs.
struct EpochBatch {
  std::vector<std::uint32_t> indices;
};

// The SPSC pair between the driver and one worker. Batches cycle
// driver-pop(free) -> fill -> push(work) -> worker-pop(work) -> process ->
// push(free); with kRingDepth batches in circulation the work ring can never
// overflow, so both pushes are infallible, and an empty free ring is exactly
// the back-pressure that bounds the driver's read-ahead.
struct Lane {
  Lane() : work(kRingDepth), free(kRingDepth) {
    for (auto& b : storage) b = std::make_unique<EpochBatch>();
  }
  util::SpscRing<EpochBatch*> work;
  util::SpscRing<EpochBatch*> free;
  std::array<std::unique_ptr<EpochBatch>, kRingDepth> storage;
};

}  // namespace

struct PipelineWorkspace::Impl {
  // Pool identity: the pool is rebuilt only when the thread count or the
  // telemetry sinks change (they are baked into the workers at construction).
  unsigned pool_threads = 0;
  telemetry::Registry* pool_registry = nullptr;
  telemetry::TraceSink* pool_trace = nullptr;
  std::unique_ptr<util::ThreadPool> pool;

  RecordStore store;
  std::vector<std::uint64_t> hashes;      // replica_key_hash per record
  std::vector<std::uint32_t> shard_ids;   // shard_of_key_hash(hash)
  std::vector<EpochBatch*> claimed;       // driver's per-worker batch in hand

  std::vector<std::unique_ptr<Lane>> lanes;                 // one per worker
  std::vector<std::unique_ptr<detail::FlatDetectState>> states;  // per shard
  std::vector<std::vector<ReplicaStream>> shard_streams;
  std::vector<telemetry::Histogram*> detect_shard_hist;

  NonLoopedScratch index_scratch;  // validate and merge, in turn
};

PipelineWorkspace::PipelineWorkspace() : impl_(std::make_unique<Impl>()) {}
PipelineWorkspace::~PipelineWorkspace() = default;

LoopDetectionResult detect_loops_pipelined(const net::Trace& trace,
                                           const LoopDetectorConfig& config,
                                           PipelineWorkspace& workspace) {
  auto& ws = workspace.impl();
  telemetry::Registry* reg = config.registry;
  const unsigned num_threads = std::max(2u, config.parallel.num_threads);
  const unsigned num_workers = num_threads - 1;
  const unsigned num_shards = config.parallel.num_shards();
  const std::size_t n = trace.size();

  if (!ws.pool || ws.pool_threads != num_threads ||
      ws.pool_registry != reg || ws.pool_trace != config.trace) {
    ws.pool.reset();
    ws.pool =
        std::make_unique<util::ThreadPool>(num_threads, reg, config.trace);
    ws.pool_threads = num_threads;
    ws.pool_registry = reg;
    ws.pool_trace = config.trace;
  }

  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");

  {
    const telemetry::ScopedTimer timer(detail::stage_histogram(reg, "detect"));
    const telemetry::ScopedSpan span(config.trace, "detect");

    // --- Workspace prep (all capacity-reusing once warm). -----------------
    ws.store.prepare(trace, n);
    ws.hashes.resize(n);
    ws.shard_ids.resize(n);
    if (ws.lanes.size() != num_workers) {
      ws.lanes.clear();
      for (unsigned w = 0; w < num_workers; ++w) {
        ws.lanes.push_back(std::make_unique<Lane>());
      }
    }
    // Restore the all-batches-free invariant (an aborted previous run can
    // strand batches in a work ring).
    for (auto& lane : ws.lanes) {
      EpochBatch* b = nullptr;
      while (lane->work.try_pop(b)) {
      }
      while (lane->free.try_pop(b)) {
      }
      for (auto& owned : lane->storage) lane->free.try_push(owned.get());
    }
    ws.claimed.assign(num_workers, nullptr);

    ws.states.resize(num_shards);
    telemetry::Histogram* spacing = telemetry::get_histogram(
        reg, "rloop_detector_replica_spacing_ns",
        telemetry::spacing_bounds_ns(), {},
        "Spacing between successive replicas of one stream");
    for (auto& state : ws.states) {
      if (!state) state = std::make_unique<detail::FlatDetectState>();
      state->bind(config.detector, spacing, config.journal);
      state->reset();
    }
    ws.shard_streams.resize(num_shards);
    ws.detect_shard_hist.assign(num_shards, nullptr);
    // Without a registry, skip building the label sets: they allocate.
    for (unsigned s = 0; reg != nullptr && s < num_shards; ++s) {
      ws.detect_shard_hist[s] = telemetry::get_histogram(
          reg, "rloop_pipeline_shard_latency_ns",
          telemetry::latency_bounds_ns(),
          {{"stage", "detect"}, {"shard", std::to_string(s)}},
          "Wall-clock latency of one pipeline shard per sharded call");
    }

    // Stage-occupancy counters: busy is time spent hashing / partitioning
    // (driver) or parsing / detecting (workers); idle is time blocked on the
    // rings. Accumulated locally per thread, flushed once at thread exit.
    telemetry::Counter* ingest_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent doing work");
    telemetry::Counter* ingest_idle = telemetry::get_counter(
        reg, "rloop_pipeline_stage_idle_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent waiting on its queues");
    telemetry::Counter* detect_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "detect"}},
        "Nanoseconds a pipeline stage spent doing work");
    telemetry::Counter* detect_idle = telemetry::get_counter(
        reg, "rloop_pipeline_stage_idle_ns_total", {{"stage", "detect"}},
        "Nanoseconds a pipeline stage spent waiting on its queues");
    const bool timed = ingest_busy != nullptr;

    std::atomic<bool> abort{false};
    std::atomic<bool> done{false};

    // --- Driver (body 0): hash, shard-assign, partition, feed. ------------
    const auto run_driver = [&] {
      std::uint64_t busy = 0;
      std::uint64_t idle = 0;
      for (std::size_t lo = 0; lo < n; lo += kEpochRecords) {
        const std::size_t hi = std::min(n, lo + kEpochRecords);
        const telemetry::ScopedSpan epoch_span(config.trace, "hash_chunk");
        const std::int64_t t0 = timed ? now_ns() : 0;
        for (std::size_t i = lo; i < hi; ++i) {
          ws.hashes[i] = replica_key_hash(trace[i].bytes());
          ws.shard_ids[i] = shard_of_key_hash(ws.hashes[i], num_shards);
        }
        const std::int64_t t1 = timed ? now_ns() : 0;
        // Claim one batch per worker. An empty free ring means that worker
        // is kRingDepth epochs behind — waiting here is the back-pressure
        // that bounds the driver's read-ahead.
        for (unsigned w = 0; w < num_workers; ++w) {
          EpochBatch* b = nullptr;
          while (!ws.lanes[w]->free.try_pop(b)) {
            if (abort.load(std::memory_order_acquire)) return;
            std::this_thread::yield();
          }
          b->indices.clear();
          ws.claimed[w] = b;
        }
        const std::int64_t t2 = timed ? now_ns() : 0;
        // Partition: shard s belongs to worker s % num_workers. Parse
        // failures are not known yet (parsing happens on the worker), so
        // every index is routed; workers skip !ok records at detect time.
        for (std::size_t i = lo; i < hi; ++i) {
          ws.claimed[ws.shard_ids[i] % num_workers]->indices.push_back(
              static_cast<std::uint32_t>(i));
        }
        for (unsigned w = 0; w < num_workers; ++w) {
          ws.lanes[w]->work.try_push(ws.claimed[w]);  // never full: see Lane
        }
        if (timed) {
          const std::int64_t t3 = now_ns();
          busy += static_cast<std::uint64_t>((t1 - t0) + (t3 - t2));
          idle += static_cast<std::uint64_t>(t2 - t1);
        }
      }
      done.store(true, std::memory_order_release);
      telemetry::inc(ingest_busy, busy);
      telemetry::inc(ingest_idle, idle);
    };

    // --- Worker (bodies 1..W): write store rows, detect; then finish. -----
    const auto run_worker = [&](unsigned w) {
      Lane& lane = *ws.lanes[w];
      std::uint64_t busy = 0;
      const std::int64_t t_start = timed ? now_ns() : 0;
      for (;;) {
        EpochBatch* b = nullptr;
        if (lane.work.try_pop(b)) {
          const telemetry::ScopedSpan span(config.trace, "parse_chunk");
          const std::int64_t t0 = timed ? now_ns() : 0;
          for (const std::uint32_t idx : b->indices) {
            ws.store.set_row(idx, trace[idx], ws.hashes[idx]);
            if (ws.store.ok(idx)) {
              ws.states[ws.shard_ids[idx]]->process(ws.store, idx);
            }
          }
          lane.free.try_push(b);  // never full: see Lane
          if (timed) busy += static_cast<std::uint64_t>(now_ns() - t0);
          continue;
        }
        if (abort.load(std::memory_order_acquire)) return;
        // `done` is set after the driver's final pushes, so done + an empty
        // (freshly re-checked) work ring means fully drained.
        if (done.load(std::memory_order_acquire) && lane.work.empty()) break;
        std::this_thread::yield();
      }
      for (unsigned s = w; s < num_shards; s += num_workers) {
        const telemetry::ScopedSpan span(config.trace, "detect_shard");
        const telemetry::ScopedTimer shard_timer(ws.detect_shard_hist[s]);
        const std::int64_t t0 = timed ? now_ns() : 0;
        ws.shard_streams[s] = ws.states[s]->finish();
        if (timed) busy += static_cast<std::uint64_t>(now_ns() - t0);
      }
      if (timed) {
        telemetry::inc(detect_busy, busy);
        telemetry::inc(detect_idle,
                       static_cast<std::uint64_t>(now_ns() - t_start) - busy);
      }
    };

    // The counter-runner parallel_for puts every body on its own pool
    // worker (n == pool size), so driver and workers genuinely overlap. A
    // body that throws flips `abort` first: the driver stops feeding and
    // every worker exits its spin, so the fan-out always joins, and
    // parallel_for rethrows the first error after the join. Span name is
    // null: the bodies emit their own finer-grained spans (hash_chunk /
    // parse_chunk / detect_shard) at depth 0 in their worker's lane.
    ws.pool->parallel_for(
        num_threads,
        [&](std::size_t t) {
          try {
            if (t == 0) {
              run_driver();
            } else {
              run_worker(static_cast<unsigned>(t) - 1);
            }
          } catch (...) {
            abort.store(true, std::memory_order_release);
            throw;
          }
        },
        nullptr);

    // --- Merge the per-shard outputs into the canonical stream order. -----
    detail::LocalCounts counts;
    std::size_t total_streams = 0;
    for (unsigned s = 0; s < num_shards; ++s) {
      counts.add(ws.states[s]->counts);
      total_streams += ws.shard_streams[s].size();
    }
    result.raw_streams.reserve(total_streams);
    for (unsigned s = 0; s < num_shards; ++s) {
      std::move(ws.shard_streams[s].begin(), ws.shard_streams[s].end(),
                std::back_inserter(result.raw_streams));
    }
    detail::sort_streams(result.raw_streams);

    telemetry::inc(
        telemetry::get_counter(reg, "rloop_detector_records_total", {},
                               "Parsed records scanned by the replica "
                               "detector"),
        counts.records);
    telemetry::inc(
        telemetry::get_counter(
            reg, "rloop_detector_replicas_matched_total", {},
            "Observations matched into an existing replica stream"),
        counts.replicas);
    telemetry::inc(
        telemetry::get_counter(
            reg, "rloop_detector_streams_opened_total", {},
            "Candidate streams opened (one per first-seen header)"),
        counts.opened);
    telemetry::inc(
        telemetry::get_counter(
            reg, "rloop_detector_streams_expired_total", {},
            "Candidate streams closed by the stream timeout"),
        counts.expired);
    telemetry::inc(
        telemetry::get_counter(
            reg, "rloop_detector_streams_emitted_total", {},
            "Closed streams with >= 2 replicas handed to validation"),
        counts.emitted);
  }

  detail::finish_detect_loops(ws.store, config, ws.index_scratch, result);
  return result;
}

}  // namespace rloop::core
