// Test-only oracle for the online detector (core/streaming_detector.h).
//
// The straightforward engine the two-tier StreamingDetector replaced: one
// std::unordered_map from ReplicaKey to an open entry, a hold-down map and a
// suspect set, with the same alert, hold-down, reorder-clamp, sampling and
// budget rules. It is deliberately simple and slow, and its output defines
// the detector's semantics: on every input without a binding
// max_open_entries budget, StreamingDetector raises the same alerts, writes
// the same alert_* journal events, reports the same suspect entries and
// holds the same live open entries (tests/test_streaming.cc diffs them).
//
// Entries past stream_timeout are dead for detection (the next packet of
// the key restarts them) but stay in the map until a sweep, so open-entry
// counts and snapshots agree with StreamingDetector only on live entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/replica_key.h"
#include "core/streaming_detector.h"
#include "net/byteio.h"
#include "net/packet.h"
#include "telemetry/decision_log.h"

namespace rloop::testing {

class ReferenceStreaming {
 public:
  using OpenEntry = core::StreamingDetector::OpenEntry;
  using Snapshot = core::StreamingDetector::Snapshot;
  using SuspectEntry = core::StreamingDetector::SuspectEntry;

  ReferenceStreaming(core::StreamingConfig config,
                     std::function<void(const core::LoopAlert&)> on_alert,
                     telemetry::DecisionLog* journal = nullptr)
      : config_(config), on_alert_(std::move(on_alert)), journal_(journal) {}

  void update_config(const core::StreamingConfig& config) { config_ = config; }
  void set_sample_keep_one_in(std::uint32_t n) { sample_n_ = n; }

  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t alerts_raised() const { return alerts_raised_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t reorder_dropped() const { return reorder_dropped_; }
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t sampled_dropped() const { return sampled_dropped_; }
  std::size_t open_entries() const { return open_.size(); }
  // Packets since the last sweep (0 right after one).
  std::uint32_t since_sweep() const { return since_sweep_; }

  void on_packet(net::TimeNs ts, std::span<const std::byte> bytes) {
    ++packets_seen_;
    if (packets_seen_ > 1 && ts < last_ts_) {
      if (last_ts_ - ts > config_.reorder_tolerance_ns) {
        ++reorder_dropped_;
        return;
      }
      ts = last_ts_;
      ++reordered_;
    }
    last_ts_ = ts;

    if (++since_sweep_ >= (1u << 15)) {
      since_sweep_ = 0;
      sweep(ts);
    }

    if (sample_n_ > 1 && bytes.size() >= net::kIpv4HeaderSize) {
      const net::Prefix dst24 =
          net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
      if (!suspects_.contains(dst24) && ++sample_tick_ % sample_n_ != 0) {
        ++sampled_dropped_;
        return;
      }
    }

    const auto parsed = net::parse_packet(bytes);
    if (!parsed) return;
    core::ReplicaKey key = core::make_replica_key(bytes);

    if (config_.max_open_entries > 0 &&
        open_.size() >= config_.max_open_entries && !open_.contains(key)) {
      enforce_budget(ts);
    }
    auto [it, inserted] = open_.try_emplace(std::move(key));
    OpenEntry& entry = it->second;
    if (inserted || ts - entry.last_ts > config_.stream_timeout) {
      restart(entry, ts, *parsed);
      return;
    }

    const int delta =
        static_cast<int>(entry.last_ttl) - static_cast<int>(parsed->ip.ttl);
    if (delta < config_.min_ttl_delta) {
      if (delta < 0) restart(entry, ts, *parsed);
      return;
    }

    entry.last_ttl = parsed->ip.ttl;
    entry.last_ts = ts;
    entry.last_delta = delta;
    ++entry.replicas;
    if (entry.replicas == 2) suspects_.insert(entry.prefix24);

    if (entry.replicas >= config_.min_replicas) {
      auto [alert_it, first_alert] =
          last_alert_.try_emplace(entry.prefix24, ts);
      if (!first_alert && ts - alert_it->second < config_.alert_holddown) {
        telemetry::record(
            journal_,
            {.kind = telemetry::DecisionKind::alert_suppressed,
             .dst24 = entry.prefix24,
             .ts = ts,
             .record_index = static_cast<std::uint32_t>(packets_seen_),
             .detail = ts - alert_it->second});
        return;
      }
      alert_it->second = ts;
      ++alerts_raised_;
      telemetry::record(
          journal_, {.kind = telemetry::DecisionKind::alert_raised,
                     .dst24 = entry.prefix24,
                     .ts = ts,
                     .record_index = static_cast<std::uint32_t>(packets_seen_),
                     .detail = static_cast<std::int64_t>(entry.replicas),
                     .detail2 = entry.last_delta});
      if (on_alert_) {
        on_alert_({.prefix24 = entry.prefix24,
                   .first_seen = entry.first_ts,
                   .raised_at = ts,
                   .replicas = entry.replicas,
                   .ttl_delta = entry.last_delta});
      }
    }
  }

  std::vector<SuspectEntry> suspect_entries() const {
    std::vector<SuspectEntry> out;
    for (const auto& [key, entry] : open_) {
      if (entry.replicas < 2) continue;
      out.push_back({entry.prefix24, entry.first_ts, entry.last_ts,
                     entry.replicas, entry.last_delta});
    }
    std::sort(out.begin(), out.end(),
              [](const SuspectEntry& a, const SuspectEntry& b) {
                if (a.replicas != b.replicas) return a.replicas > b.replicas;
                if (a.prefix24 != b.prefix24) return a.prefix24 < b.prefix24;
                if (a.first_ts != b.first_ts) return a.first_ts < b.first_ts;
                if (a.last_ts != b.last_ts) return a.last_ts < b.last_ts;
                return a.ttl_delta < b.ttl_delta;
              });
    return out;
  }

  // Every open entry, live or not, in the detector's canonical order.
  Snapshot snapshot() const {
    Snapshot snap;
    snap.last_ts = last_ts_;
    snap.packets_seen = packets_seen_;
    snap.alerts_raised = alerts_raised_;
    snap.reordered = reordered_;
    snap.reorder_dropped = reorder_dropped_;
    snap.evicted = evicted_;
    snap.sampled_dropped = sampled_dropped_;
    snap.since_sweep = since_sweep_;
    for (const auto& [key, entry] : open_) snap.open.emplace_back(key, entry);
    std::sort(snap.open.begin(), snap.open.end(),
              [](const auto& a, const auto& b) {
                if (a.first.hash != b.first.hash) {
                  return a.first.hash < b.first.hash;
                }
                if (a.first.len != b.first.len) {
                  return a.first.len < b.first.len;
                }
                return a.first.normalized < b.first.normalized;
              });
    for (const auto& [prefix, ts] : last_alert_) {
      snap.holddowns.emplace_back(prefix, ts);
    }
    std::sort(snap.holddowns.begin(), snap.holddowns.end());
    return snap;
  }

 private:
  void restart(OpenEntry& entry, net::TimeNs ts,
               const net::ParsedPacket& pkt) {
    entry = OpenEntry{};
    entry.first_ts = ts;
    entry.last_ts = ts;
    entry.last_ttl = pkt.ip.ttl;
    entry.prefix24 = net::Prefix::slash24(pkt.ip.dst);
  }

  void sweep(net::TimeNs now) {
    std::erase_if(open_, [&](const auto& kv) {
      return now - kv.second.last_ts > config_.stream_timeout;
    });
    std::erase_if(last_alert_, [&](const auto& kv) {
      return now - kv.second > 2 * config_.alert_holddown;
    });
    suspects_.clear();
    for (const auto& [key, entry] : open_) {
      if (entry.replicas >= 2) suspects_.insert(entry.prefix24);
    }
    for (const auto& [prefix, ts] : last_alert_) suspects_.insert(prefix);
  }

  void enforce_budget(net::TimeNs now) {
    const std::size_t before = open_.size();
    std::erase_if(open_, [&](const auto& kv) {
      return now - kv.second.last_ts > config_.stream_timeout;
    });
    const std::size_t target =
        config_.max_open_entries -
        std::max<std::size_t>(1, config_.max_open_entries / 8);
    if (open_.size() > target) {
      std::vector<net::TimeNs> touched;
      for (const auto& [key, entry] : open_) touched.push_back(entry.last_ts);
      const std::size_t k = open_.size() - target;
      std::nth_element(touched.begin(), touched.begin() + (k - 1),
                       touched.end());
      const net::TimeNs cutoff = touched[k - 1];
      for (auto it = open_.begin();
           it != open_.end() && open_.size() > target;) {
        it = it->second.last_ts <= cutoff ? open_.erase(it) : std::next(it);
      }
    }
    evicted_ += before - open_.size();
  }

  core::StreamingConfig config_;
  std::function<void(const core::LoopAlert&)> on_alert_;
  telemetry::DecisionLog* journal_ = nullptr;
  std::unordered_map<core::ReplicaKey, OpenEntry, core::ReplicaKeyHash> open_;
  std::unordered_map<net::Prefix, net::TimeNs> last_alert_;
  std::unordered_set<net::Prefix> suspects_;
  net::TimeNs last_ts_ = 0;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t reorder_dropped_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t sampled_dropped_ = 0;
  std::uint32_t sample_n_ = 0;
  std::uint32_t sample_tick_ = 0;
  std::uint32_t since_sweep_ = 0;
};

}  // namespace rloop::testing
