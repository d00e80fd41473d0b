// Tier 1 of both replica engines: one time generation's first sightings.
//
// Nearly every packet is a first sighting that never meets a replica, so
// both the offline engine (core/detect_state.h) and the online one
// (core/streaming_detector.h) keep first sightings in a compact
// open-addressing table of fixed-size slots, two of them rotating by
// stream_timeout-wide generations. The engines differ only in what a slot
// carries: offline slots index the trace's record store; online slots
// carry the captured bytes, because the packet buffer is reused once the
// packet has been processed.
//
// A Slot is a trivially copyable struct with a `std::uint64_t hash`
// member. Linear probing at <= 1/2 load over a parallel array of one tag
// byte per slot (empty, taken, or a fingerprint of a live slot's hash), so
// a probe that finds nothing reads tag bytes only and the slot array is
// touched to confirm a likely hit or to store a new sighting. The home slot
// maps fmix64(hash) onto the slot count by a multiply-shift, so the slot
// count need not be a power of two and a bounded table can be sized
// exactly. Slots are never erased one at a time: taking one marks its tag
// taken, so a probe chain only grows until the next clear() or rebuild(),
// and an unsuccessful probe ends at the very slot the next insert fills.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "net/time.h"
#include "util/flat_map.h"

namespace rloop::core::detail {

// A stream_timeout-wide slice of time (at least 1 ns wide, floored so
// negative timestamps rotate too) and the first timestamp of the next one.
struct Generation {
  net::TimeNs index = 0;
  net::TimeNs next_ts = 0;
};

inline Generation generation_of(net::TimeNs ts, net::TimeNs stream_timeout) {
  constexpr net::TimeNs kMax = std::numeric_limits<net::TimeNs>::max();
  const net::TimeNs width = std::max<net::TimeNs>(stream_timeout, 1);
  net::TimeNs g = ts / width;
  if (ts % width < 0) --g;
  return {g, g < kMax / width ? (g + 1) * width : kMax};
}

template <class SlotT>
class SightingTableOf {
 public:
  using Slot = SlotT;
  static_assert(std::is_trivially_copyable_v<Slot>);
  static constexpr std::size_t kMinSlots = 1024;

  std::size_t capacity() const { return slots_.size(); }
  // Live (untaken) sightings.
  std::size_t live() const { return live_; }

  // Whether one more slot can be placed without breaking the load bound.
  bool has_room() const { return (used_ + 1) * 2 <= slots_.size(); }

  // Makes room for one insert by doubling; call it before probe() so the
  // vacancy that probe() returns is the slot place() may fill.
  void reserve_one() {
    if (!has_room()) rebuild(std::max(kMinSlots, slots_.size() * 2));
  }

  // Re-places every live slot into `capacity` slots and drops taken ones.
  // `capacity` must be at least 2 * live() (0 releases an empty table).
  // Rehashing may reorder same-hash sightings, so callers order hits by
  // their own fields, not by probe order.
  void rebuild(std::size_t capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_tags = std::move(tags_);
    slots_.assign(capacity, Slot{});
    tags_.assign(capacity, kEmpty);
    used_ = 0;
    live_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_tags[i] < kFirstLive) continue;
      place(probe(old_slots[i].hash, [](Slot&) {}), old_slots[i]);
    }
  }

  // Calls fn(slot) for every live slot whose hash equals `hash`, in probe
  // order, and returns the empty slot that ends the chain (nullptr for a
  // table with no slots). Only the tag bytes are read until a tag matches.
  template <class Fn>
  Slot* probe(std::uint64_t hash, Fn&& fn) {
    const std::size_t n = slots_.size();
    if (n == 0) return nullptr;
    const std::uint64_t mixed = util::detail::fmix64(hash);
    const std::uint8_t tag = tag_of(mixed);
    for (std::size_t i = home(mixed, n);;) {
      const std::uint8_t t = tags_[i];
      if (t == kEmpty) return &slots_[i];
      if (t == tag && slots_[i].hash == hash) fn(slots_[i]);
      if (++i == n) i = 0;
    }
  }

  void place(Slot* vacancy, const Slot& sighting) {
    *vacancy = sighting;
    tags_[index_of(vacancy)] = tag_of(util::detail::fmix64(sighting.hash));
    ++used_;
    ++live_;
  }

  // Retires a live slot of this table (promoted, restarted or evicted).
  // Its tag stays occupied, so probe chains through it remain intact.
  void take(Slot& slot) {
    tags_[index_of(&slot)] = kTaken;
    --live_;
  }

  bool owns(const Slot* slot) const {
    return slot >= slots_.data() && slot < slots_.data() + slots_.size();
  }

  // Empties the table and keeps its capacity; returns how many sightings
  // were still live (they close unmatched, i.e. expire). Only the tags are
  // written: a slot is garbage until place() fills it.
  std::uint64_t clear() {
    const std::uint64_t live = live_;
    if (used_ != 0) std::fill(tags_.begin(), tags_.end(), kEmpty);
    used_ = 0;
    live_ = 0;
    return live;
  }

  template <class Fn>
  void for_each_live(Fn&& fn) {
    if (live_ == 0) return;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (tags_[i] >= kFirstLive) fn(slots_[i]);
    }
  }
  template <class Fn>
  void for_each_live(Fn&& fn) const {
    if (live_ == 0) return;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (tags_[i] >= kFirstLive) fn(slots_[i]);
    }
  }

  // Heap bytes of the slot and tag arrays: sizeof(Slot) + 1 per slot.
  std::size_t bytes_reserved() const {
    return slots_.capacity() * sizeof(Slot) + tags_.capacity();
  }

 private:
  // Tag byte per slot: empty, taken, or a live slot's hash fingerprint.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kTaken = 1;
  static constexpr std::uint8_t kFirstLive = 2;

  // The home slot takes the high bits of the mixed hash (multiply-shift),
  // the tag its low byte.
  static std::size_t home(std::uint64_t mixed, std::size_t n) {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::size_t>((static_cast<u128>(mixed) * n) >> 64);
  }
  static std::uint8_t tag_of(std::uint64_t mixed) {
    const auto t = static_cast<std::uint8_t>(mixed);
    return t < kFirstLive ? static_cast<std::uint8_t>(t + kFirstLive) : t;
  }
  std::size_t index_of(const Slot* slot) const {
    return static_cast<std::size_t>(slot - slots_.data());
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> tags_;
  std::size_t used_ = 0;  // live and taken slots
  std::size_t live_ = 0;
};

}  // namespace rloop::core::detail
