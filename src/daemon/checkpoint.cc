#include "daemon/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "net/byteio.h"
#include "net/ipv4.h"
#include "util/failpoint.h"
#include "util/fileio.h"

namespace rloop::daemon {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[4] = {'R', 'L', 'C', 'K'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Little-endian append/read, independent of host byte order.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

// Reader with an explicit ok flag: any short read poisons the cursor so
// decode can check once at the end instead of after every field.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > data.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (pos + 4 > data.size()) {
      ok = false;
      pos = data.size();
      return 0;
    }
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (pos + 8 > data.size()) {
      ok = false;
      pos = data.size();
      return 0;
    }
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool bytes(std::byte* out, std::size_t n) {
    if (pos + n > data.size()) {
      ok = false;
      pos = data.size();
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>(data[pos + i]);
    }
    pos += n;
    return true;
  }
};

void put_prefix(std::string& out, const net::Prefix& p) {
  put_u32(out, p.addr.value);
  put_u8(out, p.len);
}

net::Prefix get_prefix(Cursor& c) {
  const std::uint32_t addr = c.u32();
  const std::uint8_t len = c.u8();
  if (!c.ok || len > 32) {
    c.ok = false;
    return net::Prefix{};
  }
  return net::Prefix::of(net::Ipv4Addr(addr), len);
}

// The checksum only proves a frame was not damaged, not that its writer
// was honest, and restore copies key bytes into fixed-size table slots. So
// an open entry must look exactly like one the detector makes: an IPv4
// capture of at most kSnapLen bytes with TTL, header checksum and every
// byte past `len` zeroed, its replica_key_hash, at least one replica, and
// the /24 of its own destination.
bool plausible_open_entry(const core::ReplicaKey& key,
                          const core::StreamingDetector::OpenEntry& entry) {
  if (key.len < net::kIpv4HeaderSize || key.len > net::kSnapLen) return false;
  const auto& b = key.normalized;
  if (b[8] != std::byte{0} || b[10] != std::byte{0} || b[11] != std::byte{0}) {
    return false;
  }
  if (std::any_of(b.begin() + key.len, b.end(),
                  [](std::byte x) { return x != std::byte{0}; })) {
    return false;
  }
  const std::span<const std::byte> bytes(b.data(), key.len);
  return key.hash == core::replica_key_hash(bytes) && entry.replicas > 0 &&
         entry.prefix24 ==
             net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
}

// True when `seq` was parsed from a name of the form ckpt-<seq>.rlck.
bool parse_checkpoint_name(const std::string& name, std::uint64_t& seq) {
  constexpr std::string_view prefix = "ckpt-";
  constexpr std::string_view suffix = ".rlck";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t seq) {
  return (fs::path(dir) / ("ckpt-" + std::to_string(seq) + ".rlck")).string();
}

}  // namespace

std::string encode_checkpoint(const CheckpointState& state) {
  std::string payload;
  const auto& det = state.detector;
  payload.reserve(128 + det.open.size() * 80 + det.holddowns.size() * 13);
  put_u64(payload, state.seq);
  put_u64(payload, state.wall_unix_s);
  put_u64(payload, state.source_offset);
  put_u64(payload, state.pushed);
  put_u64(payload, state.consumed);
  put_u64(payload, state.dropped);
  put_u64(payload, state.epochs);
  put_u64(payload, state.alerts);
  put_i64(payload, det.last_ts);
  put_u64(payload, det.packets_seen);
  put_u64(payload, det.alerts_raised);
  put_u64(payload, det.reordered);
  put_u64(payload, det.reorder_dropped);
  put_u64(payload, det.evicted);
  put_u64(payload, det.sampled_dropped);
  put_u64(payload, det.peak_open);
  put_u32(payload, det.since_sweep);
  put_u64(payload, det.open.size());
  for (const auto& [key, entry] : det.open) {
    for (const std::byte b : key.normalized) {
      payload.push_back(static_cast<char>(b));
    }
    put_u8(payload, key.len);
    put_u64(payload, key.hash);
    put_i64(payload, entry.first_ts);
    put_i64(payload, entry.last_ts);
    put_u8(payload, entry.last_ttl);
    put_u32(payload, entry.replicas);
    put_u32(payload, static_cast<std::uint32_t>(entry.last_delta));
    put_prefix(payload, entry.prefix24);
  }
  put_u64(payload, det.holddowns.size());
  for (const auto& [prefix, ts] : det.holddowns) {
    put_prefix(payload, prefix);
    put_i64(payload, ts);
  }

  std::string frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.append(kMagic, sizeof(kMagic));
  put_u32(frame, kCheckpointVersion);
  put_u64(frame, payload.size());
  put_u64(frame, fnv1a64(payload));
  frame += payload;
  return frame;
}

bool decode_checkpoint(std::string_view bytes, CheckpointState& state,
                       std::string* error) {
  if (bytes.size() < kHeaderSize) {
    if (error) *error = "checkpoint shorter than its header";
    return false;
  }
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    if (error) *error = "checkpoint magic mismatch";
    return false;
  }
  Cursor header{bytes.substr(sizeof(kMagic)), 0, true};
  const std::uint32_t version = header.u32();
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (version != kCheckpointVersion) {
    if (error) {
      *error = "checkpoint version " + std::to_string(version) +
               " not supported (expected " +
               std::to_string(kCheckpointVersion) + ")";
    }
    return false;
  }
  if (bytes.size() != kHeaderSize + payload_size) {
    if (error) *error = "checkpoint payload size mismatch (torn write?)";
    return false;
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (fnv1a64(payload) != checksum) {
    if (error) *error = "checkpoint checksum mismatch";
    return false;
  }

  Cursor c{payload, 0, true};
  state = CheckpointState{};
  state.seq = c.u64();
  state.wall_unix_s = c.u64();
  state.source_offset = c.u64();
  state.pushed = c.u64();
  state.consumed = c.u64();
  state.dropped = c.u64();
  state.epochs = c.u64();
  state.alerts = c.u64();
  auto& det = state.detector;
  det.last_ts = c.i64();
  det.packets_seen = c.u64();
  det.alerts_raised = c.u64();
  det.reordered = c.u64();
  det.reorder_dropped = c.u64();
  det.evicted = c.u64();
  det.sampled_dropped = c.u64();
  det.peak_open = c.u64();
  det.since_sweep = c.u32();
  const std::uint64_t open_count = c.u64();
  // Sanity bound: each open entry occupies >= 70 payload bytes, so a count
  // beyond payload/70 cannot be honest even though the checksum passed.
  if (!c.ok || open_count > payload.size() / 70) {
    if (error) *error = "checkpoint open-entry count implausible";
    return false;
  }
  det.open.reserve(static_cast<std::size_t>(open_count));
  for (std::uint64_t i = 0; i < open_count && c.ok; ++i) {
    core::ReplicaKey key;
    c.bytes(key.normalized.data(), key.normalized.size());
    key.len = c.u8();
    key.hash = c.u64();
    core::StreamingDetector::OpenEntry entry;
    entry.first_ts = c.i64();
    entry.last_ts = c.i64();
    entry.last_ttl = c.u8();
    entry.replicas = c.u32();
    entry.last_delta = static_cast<std::int32_t>(c.u32());
    entry.prefix24 = get_prefix(c);
    if (c.ok && !plausible_open_entry(key, entry)) {
      if (error) *error = "checkpoint open entry " + std::to_string(i) +
                          " is not a detector key";
      return false;
    }
    det.open.emplace_back(std::move(key), entry);
  }
  const std::uint64_t holddown_count = c.u64();
  if (!c.ok || holddown_count > payload.size() / 13) {
    if (error) *error = "checkpoint hold-down count implausible";
    return false;
  }
  det.holddowns.reserve(static_cast<std::size_t>(holddown_count));
  for (std::uint64_t i = 0; i < holddown_count && c.ok; ++i) {
    const net::Prefix prefix = get_prefix(c);
    const net::TimeNs ts = c.i64();
    det.holddowns.emplace_back(prefix, ts);
  }
  if (!c.ok || c.pos != payload.size()) {
    if (error) *error = "checkpoint payload truncated or oversized";
    return false;
  }
  return true;
}

bool write_checkpoint_file(const std::string& dir,
                           const CheckpointState& state, std::string* error) {
  if (RLOOP_FAILPOINT("daemon.checkpoint.write")) {
    if (error) *error = "injected checkpoint write failure";
    return false;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error) *error = "cannot create checkpoint dir " + dir;
    return false;
  }
  const std::string path = checkpoint_path(dir, state.seq);
  if (!util::write_file_atomic(path, encode_checkpoint(state), error)) {
    return false;
  }
  // Prune all but the two newest snapshots; the previous one stays until
  // the next successful write, so a bad write never leaves zero valid
  // checkpoints behind. Prune failures are non-fatal (stale files only).
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (!parse_checkpoint_name(dirent.path().filename().string(), seq)) {
      continue;
    }
    if (state.seq >= 1 && seq < state.seq - 1) {
      fs::remove(dirent.path(), ec);
    }
  }
  return true;
}

bool load_latest_checkpoint(const std::string& dir, CheckpointState& state,
                            std::string* error) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, fs::path>> candidates;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_checkpoint_name(dirent.path().filename().string(), seq)) {
      candidates.emplace_back(seq, dirent.path());
    }
  }
  if (ec || candidates.empty()) {
    if (error) *error = "no checkpoint files in " + dir;
    return false;
  }
  // Newest first; fall back to older snapshots when a newer one is corrupt
  // (e.g. the process died mid-publication and left a damaged file via some
  // path outside our atomic writer).
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, path] : candidates) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) continue;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::string decode_error;
    if (decode_checkpoint(bytes, state, &decode_error)) return true;
    std::fprintf(stderr, "rloopd: skipping checkpoint %s: %s\n",
                 path.string().c_str(), decode_error.c_str());
  }
  if (error) *error = "no valid checkpoint in " + dir;
  return false;
}

}  // namespace rloop::daemon
