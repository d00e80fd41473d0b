// Staged, epoch-overlapped dataflow for the offline detection pipeline.
//
// A barrier-style parallel path (parse and detect as separate pool-wide
// stages with a full join between each) leaves workers idle for most of the
// wall clock on traces where parse and hash dominate. The staged front here
// fuses ingest -> parse (store rows) -> shard-detect into one pass over the
// trace, pipelined by epoch:
//
//   driver (body 0)            workers (bodies 1..W)
//   ------------------         -------------------------------------------
//   epoch N+1: hash bytes,     epoch N: write store rows from the bytes,
//   assign shards,             feed each record to its shard's detect
//   partition indices,    -->  state machine (FlatDetectState)
//   push batch per worker      ...
//   (bounded SPSC rings)       on drain: finish() each owned shard
//
// The driver stays one-to-eight epochs ahead of the workers (ring depth
// bounds the overlap and the memory), so epoch N+1's hashing runs
// concurrently with epoch N's parse/detect instead of waiting for it.
// Partitioning invariants:
//  - every record index is assigned to exactly one worker (shard s of the
//    record's replica-key hash goes to worker s % W), so every store row is
//    written exactly once, by one thread;
//  - all records of one shard land on one worker in trace order, so each
//    FlatDetectState sees exactly the record sequence the serial detector
//    feeds it, and the concatenate + sort merge reproduces the serial
//    stream order (same argument as parallel.h).
// Validate and merge then run serially on the calling thread — they need the
// full raw-stream set, and they are cheap next to the front — through the
// same tail as the serial path (detail::finish_detect_loops), on one
// workspace-owned index scratch, so a warm run reuses its capacity.
//
// PipelineWorkspace owns everything reusable across runs: the thread pool,
// the SoA store, the hash/shard scratch columns, the per-worker batch rings,
// one warm FlatDetectState per shard (arena + open-table capacity persist),
// and the validate/merge index scratch. bench/bench_to_json.cc keeps one
// workspace across repetitions to pin the steady-state allocation rate;
// detect_loops() creates a transient one when the config carries none.
#pragma once

#include <memory>

#include "core/loop_detector.h"
#include "net/trace.h"

namespace rloop::core {

class RecordStore;
struct NonLoopedScratch;

class PipelineWorkspace {
 public:
  PipelineWorkspace();
  ~PipelineWorkspace();
  PipelineWorkspace(const PipelineWorkspace&) = delete;
  PipelineWorkspace& operator=(const PipelineWorkspace&) = delete;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Runs the staged-dataflow pipeline on `trace`. Requires
// config.parallel.enabled(); output is field-identical to the serial
// detect_loops() for every (num_threads, shard_bits) — the differential
// harness in tests/test_parallel_pipeline.cc runs both and compares field
// by field. The workspace may be reused across calls and across differing
// configs (pool and per-shard state are rebuilt when the shape changes).
LoopDetectionResult detect_loops_pipelined(const net::Trace& trace,
                                           const LoopDetectorConfig& config,
                                           PipelineWorkspace& workspace);

namespace detail {

// rloop_pipeline_stage_latency_ns{stage=`stage`}; null without a registry.
telemetry::Histogram* stage_histogram(telemetry::Registry* registry,
                                      const char* stage);

// The tail of both detect_loops bodies, once `store` and raw_streams are
// filled: counts records and parse failures (the ok column), then runs
// validate and merge serially on the calling thread over `scratch`.
void finish_detect_loops(const RecordStore& store,
                         const LoopDetectorConfig& config,
                         NonLoopedScratch& scratch,
                         LoopDetectionResult& result);

}  // namespace detail

}  // namespace rloop::core
