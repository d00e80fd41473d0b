// Runtime-dispatched SIMD kernels for the pipeline's columnar hot loops.
//
// Each kernel exists in three spellings:
//   <name>_scalar  portable reference implementation — the semantics;
//   <name>_avx2    AVX2 implementation, compiled with a per-function target
//                  attribute (no global -mavx2, so the binary still runs on
//                  pre-AVX2 machines); falls back to the scalar body when the
//                  build has no x86 SIMD at all;
//   <name>         dispatcher: picks AVX2 when the CPU has it, else scalar.
//
// Every AVX2 kernel is bit-identical to its scalar twin — same outputs for
// every input, including remainder lanes and unaligned starts — which
// tests/test_simd.cc checks differentially on synthetic and fuzz-seeded
// columns, and which lets the detection pipeline's differential harness
// (serial vs parallel vs the test-side reference engine) double as the SIMD
// correctness gate. Building with -DRLOOP_NO_SIMD=ON compiles the
// dispatchers to the scalar bodies unconditionally; CI runs the fast tier in
// that mode so the fallback cannot rot.
//
// Dispatch happens per call on a cached CPUID probe (one predictable branch);
// kernels are only ever invoked on whole columns, so dispatch cost is noise.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rloop::util::simd {

// True when the running CPU supports AVX2 and the build did not force
// scalar (-DRLOOP_NO_SIMD=ON). Probed once, cached.
bool avx2_available();

// "avx2" or "scalar" — what the dispatchers will pick; for logs and bench
// metadata.
const char* active_backend();

// dst24 extraction: out[i] = in[i] & 0xFFFFFF00 (a /24 prefix address is the
// destination with the low byte cleared). in/out may alias only if equal.
void mask_lo8_zero_scalar(const std::uint32_t* in, std::uint32_t* out,
                          std::size_t n);
void mask_lo8_zero_avx2(const std::uint32_t* in, std::uint32_t* out,
                        std::size_t n);
void mask_lo8_zero(const std::uint32_t* in, std::uint32_t* out, std::size_t n);

// Shard assignment over a key-hash column: out[i] = mix64(in[i]) & mask,
// where mask = num_shards - 1 (shard counts are powers of two, so the
// modulo in core::shard_of_key_hash is exactly this mask). The mix is the
// splitmix64 finalizer from core/parallel.h, lane-for-lane.
void mix64_mask_scalar(const std::uint64_t* in, std::uint32_t* out,
                       std::size_t n, std::uint64_t mask);
void mix64_mask_avx2(const std::uint64_t* in, std::uint32_t* out,
                     std::size_t n, std::uint64_t mask);
void mix64_mask(const std::uint64_t* in, std::uint32_t* out, std::size_t n,
                std::uint64_t mask);

// Key-hash compare: index of the first position where a[i] != b[i], or n
// when the ranges are equal. The SIMD-vs-scalar differential harness and the
// column equality checks use this to diff whole hash columns at once.
std::size_t mismatch_u64_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n);
std::size_t mismatch_u64_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n);
std::size_t mismatch_u64(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n);

// TTL-delta histogram accumulation: for every adjacent pair, when
// ttl[i-1] > ttl[i], increments counts256[ttl[i-1] - ttl[i]]. `counts256`
// must have 256 entries; it is accumulated into, not cleared. This is the
// inner loop of ReplicaStream::dominant_ttl_delta (the loop hop-count mode).
void ttl_delta_hist_scalar(const std::uint8_t* ttl, std::size_t n,
                           std::uint32_t* counts256);
void ttl_delta_hist_avx2(const std::uint8_t* ttl, std::size_t n,
                         std::uint32_t* counts256);
void ttl_delta_hist(const std::uint8_t* ttl, std::size_t n,
                    std::uint32_t* counts256);

}  // namespace rloop::util::simd
