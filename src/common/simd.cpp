#include "common/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/simd_kernels.hpp"

namespace udb {

void sq_dist_block_soa_scalar(const double* q, const double* block,
                              std::size_t count, std::size_t stride,
                              std::size_t dim, double* out) noexcept {
  // The semantics-defining loop: per point, accumulate (q[k]-p[k])^2 in
  // ascending k. Every vectorized target replicates this chain per lane.
  for (std::size_t i = 0; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double diff = q[k] - block[k * stride + i];
      acc += diff * diff;
    }
    out[i] = acc;
  }
}

namespace {

// The range form of every target but AVX-512: the target's distances, then
// the reference compaction. Branch-free: about one candidate in four is a
// hit, so a branch per candidate would mispredict often.
template <SqDistBlockSoaFn Dist>
std::size_t dist_then_compact(const double* q, const double* block,
                              std::size_t count, std::size_t stride,
                              std::size_t dim, double r2, double* d2_out,
                              std::uint32_t* hits_out) noexcept {
  Dist(q, block, count, stride, dim, d2_out);
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    hits_out[n] = static_cast<std::uint32_t>(i);
    n += d2_out[i] < r2;
  }
  return n;
}

}  // namespace

const char* simd_target_name(SimdTarget t) noexcept {
  switch (t) {
    case SimdTarget::kScalar: return "scalar";
    case SimdTarget::kAvx2: return "avx2";
    case SimdTarget::kAvx512: return "avx512";
    case SimdTarget::kNeon: return "neon";
  }
  return "scalar";
}

bool parse_simd_target(const char* s, SimdTarget& out) noexcept {
  if (s == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0) { out = SimdTarget::kScalar; return true; }
  if (std::strcmp(s, "avx2") == 0) { out = SimdTarget::kAvx2; return true; }
  if (std::strcmp(s, "avx512") == 0) { out = SimdTarget::kAvx512; return true; }
  if (std::strcmp(s, "neon") == 0) { out = SimdTarget::kNeon; return true; }
  return false;
}

bool simd_target_compiled(SimdTarget t) noexcept {
  switch (t) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kAvx2:
#if defined(UDB_SIMD_COMPILED_AVX2)
      return true;
#else
      return false;
#endif
    case SimdTarget::kAvx512:
#if defined(UDB_SIMD_COMPILED_AVX512)
      return true;
#else
      return false;
#endif
    case SimdTarget::kNeon:
#if defined(UDB_SIMD_COMPILED_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

namespace {

// Host CPU capability for a target (independent of what was compiled).
bool cpu_supports(SimdTarget t) noexcept {
  switch (t) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdTarget::kAvx512:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
    case SimdTarget::kNeon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is baseline on AArch64
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

bool simd_target_runnable(SimdTarget t) noexcept {
  return simd_target_compiled(t) && cpu_supports(t);
}

std::vector<SimdTarget> runnable_simd_targets() {
  std::vector<SimdTarget> out{SimdTarget::kScalar};
  for (SimdTarget t :
       {SimdTarget::kNeon, SimdTarget::kAvx2, SimdTarget::kAvx512})
    if (simd_target_runnable(t)) out.push_back(t);
  return out;
}

SqDistBlockSoaFn simd_kernel_for(SimdTarget t) noexcept {
  if (!simd_target_runnable(t)) return nullptr;
  switch (t) {
    case SimdTarget::kScalar:
      return &sq_dist_block_soa_scalar;
#if defined(UDB_SIMD_COMPILED_AVX2)
    case SimdTarget::kAvx2:
      return &detail::sq_dist_block_soa_avx2;
#endif
#if defined(UDB_SIMD_COMPILED_AVX512)
    case SimdTarget::kAvx512:
      return &detail::sq_dist_block_soa_avx512;
#endif
#if defined(UDB_SIMD_COMPILED_NEON)
    case SimdTarget::kNeon:
      return &detail::sq_dist_block_soa_neon;
#endif
    default:
      return nullptr;
  }
}

SqDistBlockSoaHitsFn simd_hits_kernel_for(SimdTarget t) noexcept {
  if (!simd_target_runnable(t)) return nullptr;
  switch (t) {
    case SimdTarget::kScalar:
      return &dist_then_compact<&sq_dist_block_soa_scalar>;
#if defined(UDB_SIMD_COMPILED_AVX2)
    case SimdTarget::kAvx2:
      return &dist_then_compact<&detail::sq_dist_block_soa_avx2>;
#endif
#if defined(UDB_SIMD_COMPILED_AVX512)
    case SimdTarget::kAvx512:
      return &detail::sq_dist_block_soa_hits_avx512;
#endif
#if defined(UDB_SIMD_COMPILED_NEON)
    case SimdTarget::kNeon:
      return &dist_then_compact<&detail::sq_dist_block_soa_neon>;
#endif
    default:
      return nullptr;
  }
}

std::size_t simd_lanes(SimdTarget t) noexcept {
  switch (t) {
    case SimdTarget::kScalar: return 1;
    case SimdTarget::kAvx2: return 4;
    case SimdTarget::kAvx512: return 8;
    case SimdTarget::kNeon: return 2;
  }
  return 1;
}

namespace {

// Dispatch state. `g_fn` doubles as the "resolved" flag: nullptr until the
// first resolution publishes a kernel with release ordering; the hot path
// pays one relaxed/acquire load. `g_target` and `g_hits_fn` are only written
// alongside g_fn, and g_hits_fn before it, so a published g_fn implies a
// published g_hits_fn.
std::atomic<SqDistBlockSoaFn> g_fn{nullptr};
std::atomic<SqDistBlockSoaHitsFn> g_hits_fn{nullptr};
std::atomic<std::uint8_t> g_target{0};
std::atomic<std::size_t> g_lanes{1};

void publish(SimdTarget t) noexcept {
  g_target.store(static_cast<std::uint8_t>(t), std::memory_order_relaxed);
  g_lanes.store(simd_lanes(t), std::memory_order_relaxed);
  g_hits_fn.store(simd_hits_kernel_for(t), std::memory_order_release);
  g_fn.store(simd_kernel_for(t), std::memory_order_release);
}

SimdTarget resolve() noexcept {
  // UDB_SIMD override: force any runnable target. A value naming a target
  // this binary/host cannot execute (or garbage) warns once and falls back
  // to the guaranteed-identical portable kernel — never an illegal
  // instruction, never silently "auto".
  if (const char* env = std::getenv("UDB_SIMD");
      env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    SimdTarget t;
    if (parse_simd_target(env, t) && simd_target_runnable(t)) return t;
    std::fprintf(stderr,
                 "udbscan: UDB_SIMD=%s is not a runnable target on this host; "
                 "using the portable scalar kernel\n",
                 env);
    return SimdTarget::kScalar;
  }
  // Widest runnable target wins.
  for (SimdTarget t :
       {SimdTarget::kAvx512, SimdTarget::kAvx2, SimdTarget::kNeon})
    if (simd_target_runnable(t)) return t;
  return SimdTarget::kScalar;
}

SqDistBlockSoaFn resolve_and_publish() noexcept {
  // Racing first calls may both resolve; they resolve to the same answer
  // (env + CPUID are stable), so the double publish is benign.
  publish(resolve());
  return g_fn.load(std::memory_order_relaxed);
}

}  // namespace

SimdTarget active_simd_target() noexcept {
  if (g_fn.load(std::memory_order_acquire) == nullptr) resolve_and_publish();
  return static_cast<SimdTarget>(g_target.load(std::memory_order_relaxed));
}

std::size_t active_simd_lanes() noexcept {
  if (g_fn.load(std::memory_order_acquire) == nullptr) resolve_and_publish();
  return g_lanes.load(std::memory_order_relaxed);
}

void force_simd_target(SimdTarget t) {
  if (!simd_target_runnable(t))
    throw std::invalid_argument(
        std::string("force_simd_target: target not runnable on this host: ") +
        simd_target_name(t));
  publish(t);
}

void sq_dist_block_soa(const double* q, const double* block, std::size_t count,
                       std::size_t stride, std::size_t dim,
                       double* out) noexcept {
  SqDistBlockSoaFn fn = g_fn.load(std::memory_order_acquire);
  if (fn == nullptr) fn = resolve_and_publish();
  fn(q, block, count, stride, dim, out);
}

std::size_t sq_dist_block_soa_hits(const double* q, const double* block,
                                   std::size_t count, std::size_t stride,
                                   std::size_t dim, double r2, double* d2_out,
                                   std::uint32_t* hits_out) noexcept {
  SqDistBlockSoaHitsFn fn = g_hits_fn.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_and_publish();
    fn = g_hits_fn.load(std::memory_order_acquire);
  }
  return fn(q, block, count, stride, dim, r2, d2_out, hits_out);
}

}  // namespace udb
