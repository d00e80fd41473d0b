#include "core/record_store.h"

#include "core/replica_key.h"
#include "util/simd.h"

namespace rloop::core {

void RecordStore::prepare(const net::Trace& trace, std::size_t n) {
  trace_ = &trace;
  ts_.resize(n);
  dst_.resize(n);
  dst24_.resize(n);
  ttl_.resize(n);
  ok_.resize(n);
  key_hash_.resize(n);
}

RecordStore RecordStore::build(const net::Trace& trace,
                               const std::vector<ParsedRecord>& records) {
  RecordStore store;
  store.trace_ = &trace;
  const std::size_t n = records.size();
  store.ts_.resize(n);
  store.dst_.resize(n);
  store.dst24_.resize(n);
  store.ttl_.resize(n);
  store.ok_.resize(n);
  store.key_hash_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ParsedRecord& rec = records[i];
    store.ts_[i] = rec.ts;
    store.ok_[i] = rec.ok ? 1 : 0;
    store.dst_[i] = rec.pkt.ip.dst.value;
    store.ttl_[i] = rec.pkt.ip.ttl;
  }
  // dst24 extraction is one vectorized mask pass over the dst column: a
  // parsed record's dst24 is Prefix::slash24(dst), i.e. dst with the low
  // byte cleared. Records that failed to parse then get their (default
  // prefix) value restored scalar, preserving the parsed records' exact
  // bytes; the scan is branch-predictable because parse failures are rare.
  util::simd::mask_lo8_zero(store.dst_.data(), store.dst24_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    if (store.ok_[i] == 0) store.dst24_[i] = records[i].dst24.addr.value;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (store.ok_[i] != 0) {
      store.key_hash_[i] = replica_key_hash(trace[i].bytes());
    }
  }
  return store;
}

}  // namespace rloop::core
