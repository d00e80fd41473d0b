// Crash-safe daemon checkpoints.
//
// A checkpoint is everything the daemon needs to resume detection after a
// kill -9: the detector's open-entry state and hold-downs (a
// StreamingDetector::Snapshot), the exact ledger (pushed/consumed/dropped),
// and the resume offset into the packet source. Written at epoch boundaries
// via tmp + fsync + rename (never a torn file on disk), restored on start
// by scanning the checkpoint directory for the newest snapshot whose
// checksum verifies — corrupt or truncated files are skipped with a
// warning, never trusted, never fatal.
//
// On-disk format (all integers little-endian, independent of host order):
//
//   offset  size  field
//   0       4     magic "RLCK"
//   4       4     version (u32, currently 1)
//   8       8     payload size (u64)
//   16      8     FNV-1a-64 checksum of the payload bytes
//   24      ...   payload (CheckpointState fields, then the detector's
//                 open entries and hold-downs, counted)
//
// Versioning rule: any change to the payload layout bumps the version; a
// reader rejects versions it does not know (decode returns false) so an
// old binary never misparses a new snapshot, and a new binary treats an
// old version as "no checkpoint" rather than guessing. The detector
// snapshot is canonically sorted (see StreamingDetector::Snapshot), so
// identical state always produces identical bytes.
//
// Resume semantics: `source_offset` counts records the producer took from
// the source up to the snapshot (consumed + dropped). Under `block`
// back-pressure nothing is ever dropped, so skipping `source_offset`
// records on restart replays exactly the unprocessed suffix and the
// restarted run's alerts equal the uninterrupted run's. Under
// `drop_newest`, records the producer dropped after the snapshot are lost
// with the process — the "modulo the ring window" caveat.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/streaming_detector.h"

namespace rloop::daemon {

inline constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointState {
  std::uint64_t seq = 0;          // monotonic per daemon run, resumes rising
  std::uint64_t wall_unix_s = 0;  // wall clock at write (restore-age log)
  // Records taken from the source when the snapshot was cut
  // (== pushed == consumed + dropped at an epoch boundary); the restart
  // skips this many records.
  std::uint64_t source_offset = 0;
  std::uint64_t pushed = 0;
  std::uint64_t consumed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t epochs = 0;
  std::uint64_t alerts = 0;
  core::StreamingDetector::Snapshot detector;
};

// Serializes `state` into the framed format above (header + checksummed
// payload). Deterministic: equal states encode to equal bytes.
std::string encode_checkpoint(const CheckpointState& state);

// Parses and verifies a frame produced by encode_checkpoint. Returns false
// (message in *error when non-null) on short input, bad magic, unknown
// version, size mismatch, checksum mismatch, or an open entry the detector
// could not have written (key longer than kSnapLen or shorter than an IPv4
// header, unmasked TTL/checksum or bytes past its length, a hash that is
// not its replica_key_hash, zero replicas, or a /24 other than its
// destination's); `state` is unspecified on failure.
bool decode_checkpoint(std::string_view bytes, CheckpointState& state,
                       std::string* error = nullptr);

// Writes `state` to <dir>/ckpt-<seq>.rlck atomically and prunes older
// snapshots, keeping the newest two (the previous one survives until the
// next write so a crash during rename still leaves a valid snapshot).
// Creates `dir` if missing. False + *error on any I/O failure; an existing
// newest checkpoint is never damaged by a failed write.
bool write_checkpoint_file(const std::string& dir,
                           const CheckpointState& state,
                           std::string* error = nullptr);

// Scans `dir` for ckpt-*.rlck files and decodes the one with the highest
// sequence number that verifies, skipping (and warning to stderr about)
// corrupt files. Returns false when the directory is missing/empty or no
// file verifies — the cold-start path, not an error.
bool load_latest_checkpoint(const std::string& dir, CheckpointState& state,
                            std::string* error = nullptr);

}  // namespace rloop::daemon
