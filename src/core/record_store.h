// Structure-of-arrays view of a trace for the detection hot path.
//
// The paper's three steps read only IP-header fields of each record
// (timestamp, TTL, destination /24, replica-key hash). RecordStore holds
// exactly those, one contiguous column per field:
//
//   ts        int64   capture timestamp
//   dst       uint32  raw destination address
//   dst24     uint32  destination address masked to /24
//   ttl       uint8   IP TTL
//   ok        uint8   1 when the IP header parsed
//   key_hash  uint64  replica_key_hash over the captured bytes (0 when !ok)
//
// Rows are written straight from the captured bytes (IP header only), so the
// store is the one per-record product of detect_loops; readers that want
// full headers parse on demand (parse_record, core/record.h). The key hash
// is computed once per record — by build() serially, by the pipeline's
// driver thread in parallel. The store keeps a pointer to the source trace,
// whose raw bytes (`bytes(i)`) keep replica keys byte-precise, so the trace
// must outlive the store.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/record.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "net/time.h"
#include "net/trace.h"

namespace rloop::core {

class RecordStore {
 public:
  RecordStore() = default;

  // Writes every row of `trace`; retains a pointer to it for bytes().
  static RecordStore build(const net::Trace& trace);
  // Same store; `records` (parse_trace(trace)) is not read.
  static RecordStore build(const net::Trace& trace,
                           const std::vector<ParsedRecord>& records);

  // Sizes every column for `n` records of `trace` without filling them;
  // rows are then written by set_row, each exactly once — in order by
  // build(), and by the worker that owns the record in the staged dataflow
  // (core/pipeline.cc; disjoint-row discipline — no two threads ever touch
  // one index).
  // Column capacity is reused across calls, so a persistent workspace's
  // store allocates nothing once warm.
  void prepare(const net::Trace& trace, std::size_t n);

  // Fills row i from the captured bytes of `rec` and its replica-key hash.
  // `ok` is exactly parse_packet's success condition (the IP header
  // parses); a row that fails keeps zeros in every column but ts.
  void set_row(std::size_t i, const net::TraceRecord& rec,
               std::uint64_t key_hash) {
    ts_[i] = rec.ts;
    const auto ip = net::Ipv4Header::parse(rec.bytes());
    ok_[i] = ip ? 1 : 0;
    dst_[i] = ip ? ip->dst.value : 0;
    dst24_[i] = ip ? ip->dst.value & 0xffffff00u : 0;  // the /24 mask
    ttl_[i] = ip ? ip->ttl : 0;
    key_hash_[i] = ip ? key_hash : 0;
  }

  // Records whose IP header failed to parse (rows with ok == 0).
  std::uint64_t parse_failures() const;

  std::size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

  bool ok(std::size_t i) const { return ok_[i] != 0; }
  net::TimeNs ts(std::size_t i) const { return ts_[i]; }
  std::uint8_t ttl(std::size_t i) const { return ttl_[i]; }
  net::Ipv4Addr dst(std::size_t i) const { return net::Ipv4Addr(dst_[i]); }
  net::Prefix dst24(std::size_t i) const {
    return net::Prefix::of(net::Ipv4Addr(dst24_[i]), 24);
  }
  // Packed (addr << 8 | 24) form of dst24, the NonLoopedIndex sort key.
  std::uint64_t dst24_key(std::size_t i) const {
    return (static_cast<std::uint64_t>(dst24_[i]) << 8) | 24u;
  }
  std::uint64_t key_hash(std::size_t i) const { return key_hash_[i]; }

  // The record's captured bytes (starting at the IP header) in the source
  // trace; valid only while the trace lives.
  std::span<const std::byte> bytes(std::size_t i) const {
    return (*trace_)[i].bytes();
  }

 private:
  const net::Trace* trace_ = nullptr;
  std::vector<net::TimeNs> ts_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint32_t> dst24_;
  std::vector<std::uint8_t> ttl_;
  std::vector<std::uint8_t> ok_;
  std::vector<std::uint64_t> key_hash_;
};

}  // namespace rloop::core
