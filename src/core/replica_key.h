// Replica identity (Section IV-A.1 of the paper).
//
// Two packets are replicas of one looped packet when their headers are
// identical except for the TTL and IP header checksum, and their payloads
// are identical. With 40-byte captures, "headers and payload" is exactly the
// captured bytes with TTL and checksum masked out: the IP identification
// field separates distinct packets of a flow, and the transport checksum
// stands in for payload identity.
//
// The key therefore stores the captured bytes with the two fields zeroed and
// compares them exactly (the hash only buckets; equality is byte-precise, so
// there are no false merges from hash collisions).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "net/trace.h"

namespace rloop::core {

struct ReplicaKey {
  std::array<std::byte, net::kSnapLen> normalized{};
  std::uint8_t len = 0;
  std::uint64_t hash = 0;

  bool operator==(const ReplicaKey& other) const {
    return len == other.len && hash == other.hash &&
           normalized == other.normalized;
  }
};

// Builds the key from captured bytes (which must start at the IP header).
// The TTL byte (offset 8) and header checksum (offsets 10-11) are zeroed;
// everything else — including IP ID, ports, sequence numbers and transport
// checksum — participates in identity.
ReplicaKey make_replica_key(std::span<const std::byte> captured);

// Same key, but with the hash supplied by the caller (it must equal
// replica_key_hash(captured)). Skips the FNV pass — the record store's hash
// column already holds it, so key construction is a masked copy only.
ReplicaKey make_replica_key(std::span<const std::byte> captured,
                            std::uint64_t precomputed_hash);

// The hash make_replica_key(captured) would compute, without materializing
// the normalized copy. The parallel detector uses this to assign records to
// shards in one cheap pass before any per-shard key construction.
std::uint64_t replica_key_hash(std::span<const std::byte> captured);

// True when make_replica_key(a) and make_replica_key(b) hold the same bytes:
// both captures agree everywhere except the TTL and the header checksum. The
// detector confirms every hash hit with this against the trace's raw bytes,
// so no key is materialized per record and a hash collision never merges
// two packets. A key's own normalized bytes are a valid argument too.
inline bool same_replica_bytes(std::span<const std::byte> a,
                               std::span<const std::byte> b) {
  const std::size_t n = std::min(a.size(), net::kSnapLen);
  if (n != std::min(b.size(), net::kSnapLen)) return false;
  const auto equal = [&](std::size_t lo, std::size_t hi) {
    hi = std::min(hi, n);
    return lo >= hi || std::memcmp(a.data() + lo, b.data() + lo, hi - lo) == 0;
  };
  return equal(0, 8) && equal(9, 10) && equal(12, n);
}

struct ReplicaKeyHash {
  std::size_t operator()(const ReplicaKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace rloop::core
