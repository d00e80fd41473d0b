#include "core/record_store.h"

#include <algorithm>

#include "core/replica_key.h"

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

RecordStore RecordStore::build(const net::Trace& trace) {
  RecordStore store;
  store.prepare(trace, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    store.set_row(i, trace[i], replica_key_hash(trace[i].bytes()));
  }
  return store;
}

RecordStore RecordStore::build(const net::Trace& trace,
                               const std::vector<ParsedRecord>&) {
  return build(trace);
}

std::uint64_t RecordStore::parse_failures() const {
  return static_cast<std::uint64_t>(
      std::count(ok_.begin(), ok_.end(), std::uint8_t{0}));
}

}  // namespace rloop::core
