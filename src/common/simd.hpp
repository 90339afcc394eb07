// Runtime-dispatched vectorized distance kernels over SoA coordinate blocks
// (docs/KERNELS.md).
//
// The spatial-index hot path computes squared distances from ONE query point
// to a BLOCK of points stored dimension-major ("SoA"): coordinate k of block
// point i lives at block[k * stride + i]. That layout makes every SIMD lane a
// point — each vector iteration loads `lanes` consecutive same-dimension
// coordinates with a unit-stride load, so the kernel vectorizes for any
// dimensionality without gathers or shuffles.
//
// Targets: a portable scalar loop (always available, the reference), AVX2,
// AVX-512 and NEON. The target is resolved ONCE per process — CPUID/feature
// probe, overridable by the UDB_SIMD environment variable — into a function
// pointer published through a std::atomic; every later call is one relaxed
// load plus an indirect call.
//
// Exactness contract: every target computes, per point, the same IEEE-754
// operation sequence as the scalar sq_dist loop —
//     acc_0 = 0;  acc_{k+1} = acc_k + (q[k] - p[k]) * (q[k] - p[k])
// with no FMA contraction and no reassociation (lanes are independent
// points; the per-point chain is sequential in k in every target). Results
// are therefore bit-identical across targets, so every comparison against
// eps^2 — strict or not, including points exactly at distance eps, -0.0
// twins, duplicates and denormals — lands on the same side everywhere. The
// build enforces -ffp-contract=off so no compiler re-fuses the arithmetic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace udb {

enum class SimdTarget : std::uint8_t {
  kScalar = 0,  // portable loop; the semantics-defining reference
  kAvx2 = 1,    // 4 doubles / vector
  kAvx512 = 2,  // 8 doubles / vector
  kNeon = 3,    // 2 doubles / vector
};

// Stable lowercase names ("scalar", "avx2", "avx512", "neon") — the UDB_SIMD
// vocabulary, also used in run reports and bench JSON.
[[nodiscard]] const char* simd_target_name(SimdTarget t) noexcept;

// Parses a UDB_SIMD value. Returns true and sets `out` on success; "auto" is
// rejected here (the resolver treats it as "no override").
[[nodiscard]] bool parse_simd_target(const char* s, SimdTarget& out) noexcept;

// One-query-vs-block kernel signature. Writes out[i] = squared distance from
// q to block point i for i in [0, count). `stride` is the block's allocation
// stride in points (>= count); coordinate k of point i is block[k*stride+i].
using SqDistBlockSoaFn = void (*)(const double* q, const double* block,
                                  std::size_t count, std::size_t stride,
                                  std::size_t dim, double* out);

// Range form of the kernel: writes d2_out[i] exactly as the plain kernel
// does, then lists in hits_out, in ascending order, the positions i with
// d2_out[i] < r2 (strict; a NaN distance is never a hit). Returns the number
// of hits. hits_out must hold `count` entries: a target may write scratch
// past the last hit, never past count.
using SqDistBlockSoaHitsFn = std::size_t (*)(const double* q,
                                             const double* block,
                                             std::size_t count,
                                             std::size_t stride,
                                             std::size_t dim, double r2,
                                             double* d2_out,
                                             std::uint32_t* hits_out);

// Portable reference kernel (always compiled, ISA-independent).
void sq_dist_block_soa_scalar(const double* q, const double* block,
                              std::size_t count, std::size_t stride,
                              std::size_t dim, double* out) noexcept;

// True if `t` was compiled into this binary (its TU got the ISA flags).
[[nodiscard]] bool simd_target_compiled(SimdTarget t) noexcept;

// True if `t` is compiled AND the host CPU can execute it (CPUID probe).
[[nodiscard]] bool simd_target_runnable(SimdTarget t) noexcept;

// All runnable targets, scalar first — what the exactness suites iterate.
[[nodiscard]] std::vector<SimdTarget> runnable_simd_targets();

// Raw kernel for a target, or nullptr if not runnable. Lets the micro bench
// time every target side by side without flipping the global dispatch.
[[nodiscard]] SqDistBlockSoaFn simd_kernel_for(SimdTarget t) noexcept;
[[nodiscard]] SqDistBlockSoaHitsFn simd_hits_kernel_for(SimdTarget t) noexcept;

// Doubles per vector register for a target (scalar = 1). The block-scan
// coverage counters derive their tail counts from the ACTIVE target's lanes.
[[nodiscard]] std::size_t simd_lanes(SimdTarget t) noexcept;

// The resolved dispatch target. First call resolves: UDB_SIMD override if
// set (an unrunnable or unparsable value warns once on stderr and falls back
// to the portable kernel), otherwise the widest runnable target. Later calls
// are one relaxed atomic load. Thread-safe.
[[nodiscard]] SimdTarget active_simd_target() noexcept;

// Lanes of the active target; pair of one atomic load.
[[nodiscard]] std::size_t active_simd_lanes() noexcept;

// Test/bench hook: forces the dispatch to `t` for the whole process until
// the next call. Throws std::invalid_argument if `t` is not runnable on this
// host. Not meant for concurrent use with in-flight queries (callers flip it
// between runs; every target is exact, so a mid-query flip is still correct,
// just unaccounted in the tail counters).
void force_simd_target(SimdTarget t);

// Hot entry points: dispatch to the active target's kernels.
void sq_dist_block_soa(const double* q, const double* block, std::size_t count,
                       std::size_t stride, std::size_t dim,
                       double* out) noexcept;
std::size_t sq_dist_block_soa_hits(const double* q, const double* block,
                                   std::size_t count, std::size_t stride,
                                   std::size_t dim, double r2, double* d2_out,
                                   std::uint32_t* hits_out) noexcept;

}  // namespace udb
