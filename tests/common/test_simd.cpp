// Exactness property suite for the SIMD distance-kernel family
// (common/simd.hpp, docs/KERNELS.md). The contract under test: every
// dispatch target produces BIT-IDENTICAL squared distances to the portable
// scalar reference — including duplicates, signed zeros, denormals, and
// points exactly on the eps boundary — so forcing any UDB_SIMD target can
// never change a clustering. The range kernels (sq_dist_block_soa_hits)
// must also list exactly the reference's hits: the positions with d2 < r2,
// strict, in ascending order.

#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace udb {
namespace {

// Restores the startup dispatch choice when a test forces targets.
struct TargetGuard {
  SimdTarget prev = active_simd_target();
  ~TargetGuard() { force_simd_target(prev); }
};

std::vector<double> scalar_ref(const double* q, const double* block,
                               std::size_t count, std::size_t stride,
                               std::size_t dim) {
  std::vector<double> out(count);
  sq_dist_block_soa_scalar(q, block, count, stride, dim, out.data());
  return out;
}

void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got, SimdTarget t,
                          std::size_t dim, std::size_t count) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // memcmp-level comparison: NaN-safe and catches -0.0 vs 0.0.
    EXPECT_EQ(std::memcmp(&ref[i], &got[i], sizeof(double)), 0)
        << simd_target_name(t) << " dim=" << dim << " count=" << count
        << " i=" << i << " ref=" << ref[i] << " got=" << got[i];
  }
}

// Runs every runnable target's range kernel over one block and checks it
// against the definition: d2 bit-identical to the scalar distance kernel,
// hits = the ascending positions with d2 < r2, nothing written past `count`.
void expect_hits_match_reference(const double* q, const double* block,
                                 std::size_t count, std::size_t stride,
                                 std::size_t dim, double r2,
                                 const std::string& where) {
  const auto ref = scalar_ref(q, block, count, stride, dim);
  std::vector<std::uint32_t> ref_hits;
  for (std::size_t i = 0; i < count; ++i)
    if (ref[i] < r2) ref_hits.push_back(static_cast<std::uint32_t>(i));
  constexpr std::uint32_t kSentinel = 0xDEADBEEF;
  for (SimdTarget t : runnable_simd_targets()) {
    std::vector<double> got(count + 1, -1.0);
    std::vector<std::uint32_t> hits(count + 1, kSentinel);
    const std::size_t n = simd_hits_kernel_for(t)(q, block, count, stride, dim,
                                                  r2, got.data(), hits.data());
    EXPECT_EQ(hits[count], kSentinel) << simd_target_name(t) << " " << where;
    EXPECT_EQ(got[count], -1.0) << simd_target_name(t) << " " << where;
    got.resize(count);
    expect_bitwise_equal(ref, got, t, dim, count);
    ASSERT_LE(n, count) << simd_target_name(t) << " " << where;
    hits.resize(n);
    EXPECT_EQ(hits, ref_hits) << simd_target_name(t) << " " << where
                              << " r2=" << r2;
  }
}

TEST(SimdKernel, AllTargetsBitExactOnRandomBlocks) {
  Rng rng(20260808);
  const std::size_t counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100};
  const std::size_t dims[] = {1, 2, 3, 4, 7, 8, 16, 33};
  for (std::size_t dim : dims) {
    for (std::size_t count : counts) {
      const std::size_t stride = count + (count % 3);  // spare slots too
      std::vector<double> block(std::max<std::size_t>(1, stride * dim));
      std::vector<double> q(dim);
      for (auto& v : block) v = rng.uniform(-1e3, 1e3);
      for (auto& v : q) v = rng.uniform(-1e3, 1e3);
      if (count >= 4) {
        // Duplicates of the query (distance exactly 0) and -0.0 twins.
        const std::size_t dup = count / 2;
        for (std::size_t k = 0; k < dim; ++k) {
          block[k * stride + dup] = q[k];
          block[k * stride + dup - 1] = -0.0;
        }
      }
      const auto ref = scalar_ref(q.data(), block.data(), count, stride, dim);
      for (SimdTarget t : runnable_simd_targets()) {
        std::vector<double> got(count);
        simd_kernel_for(t)(q.data(), block.data(), count, stride, dim,
                           got.data());
        expect_bitwise_equal(ref, got, t, dim, count);
      }
      // Range form, with r2 one of the block's own distances (that point is
      // exactly at r, so it is not a hit).
      std::vector<double> sorted = ref;
      std::sort(sorted.begin(), sorted.end());
      const double r2 = count == 0 ? 1.0 : sorted[count / 2];
      expect_hits_match_reference(q.data(), block.data(), count, stride, dim,
                                  r2, "random dim=" + std::to_string(dim) +
                                          " count=" + std::to_string(count));
    }
  }
}

TEST(SimdKernel, RangeKernelMatchesReferenceAtEveryTailLength) {
  // Counts 0 .. 3 * lanes + 1 of the widest target, so every target runs
  // whole vectors, a partial tail and blocks shorter than one vector; stride
  // > count, so the spare slots of every axis hold points that must never
  // be read. Coordinates are small integers (exact squares and sums), so
  // many points sit exactly at r and the strict comparison decides them;
  // block point 0 duplicates q, and point 1 is q's -0.0 twin.
  Rng rng(20261019);
  std::size_t max_lanes = 1;
  for (SimdTarget t : runnable_simd_targets())
    max_lanes = std::max(max_lanes, simd_lanes(t));
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    for (std::size_t count = 0; count <= 3 * max_lanes + 1; ++count) {
      const std::size_t stride = count + 5;
      std::vector<double> block(stride * dim);
      for (auto& v : block) v = static_cast<double>(rng.uniform_index(7)) - 3.0;
      std::vector<double> q(dim, 0.0);
      q[0] = -0.0;
      for (std::size_t k = 0; k < dim && count > 1; ++k) {
        block[k * stride + 0] = q[k];
        block[k * stride + 1] = q[k] == 0.0 ? -q[k] : q[k];
      }
      const std::string where =
          "dim=" + std::to_string(dim) + " count=" + std::to_string(count);
      for (double r2 : {0.0, 1.0, 2.0, 4.0, 9.0, 1e300,
                        std::numeric_limits<double>::infinity()})
        expect_hits_match_reference(q.data(), block.data(), count, stride,
                                    dim, r2, where);
    }
  }
}

TEST(SimdKernel, DenormalsAndExtremesBitExact) {
  const std::size_t dim = 3, count = 9, stride = 9;
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = 1e-310;  // subnormal
  const double huge = 1e150;   // squares to ~1e300, still finite
  std::vector<double> block(stride * dim, 0.0);
  std::vector<double> q = {tiny, -tiny, denorm};
  const double vals[] = {0.0, -0.0, denorm, -denorm, tiny, -tiny, huge, -huge, 1.0};
  for (std::size_t i = 0; i < count; ++i)
    for (std::size_t k = 0; k < dim; ++k)
      block[k * stride + i] = vals[(i + k) % count];
  const auto ref = scalar_ref(q.data(), block.data(), count, stride, dim);
  for (SimdTarget t : runnable_simd_targets()) {
    std::vector<double> got(count);
    simd_kernel_for(t)(q.data(), block.data(), count, stride, dim, got.data());
    expect_bitwise_equal(ref, got, t, dim, count);
  }
  // Subnormal radii split the subnormal distances; r2 = 0 admits nothing.
  for (double r2 : {0.0, denorm, 2 * denorm, tiny * tiny, 1e-300, 1.0})
    expect_hits_match_reference(q.data(), block.data(), count, stride, dim,
                                r2, "denormals");
}

TEST(SimdKernel, ExactEpsBoundaryIsExactForEveryTarget) {
  // q at the origin, candidates on a 3-4-5 triangle: squared distance is
  // exactly 25.0 in IEEE double, so the strict/non-strict eps comparison
  // flips on bit-equality. Every target must produce exactly 25.0.
  const std::size_t dim = 2, count = 8, stride = 8;
  std::vector<double> q = {0.0, 0.0};
  std::vector<double> block(stride * dim);
  for (std::size_t i = 0; i < count; ++i) {
    block[0 * stride + i] = (i % 2 == 0) ? 3.0 : -3.0;
    block[1 * stride + i] = (i % 4 < 2) ? 4.0 : -4.0;
  }
  for (SimdTarget t : runnable_simd_targets()) {
    std::vector<double> got(count);
    simd_kernel_for(t)(q.data(), block.data(), count, stride, dim, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], 25.0) << simd_target_name(t) << " i=" << i;
      EXPECT_FALSE(got[i] < 25.0);  // strict eps=5 excludes
      EXPECT_TRUE(got[i] <= 25.0);  // non-strict eps=5 includes
    }
    // The range form is strict: at r2 = 25 no point is a hit, one ulp above
    // every point is.
    std::vector<std::uint32_t> hits(count);
    EXPECT_EQ(simd_hits_kernel_for(t)(q.data(), block.data(), count, stride,
                                      dim, 25.0, got.data(), hits.data()),
              0u)
        << simd_target_name(t);
    EXPECT_EQ(simd_hits_kernel_for(t)(q.data(), block.data(), count, stride,
                                      dim, std::nextafter(25.0, 26.0),
                                      got.data(), hits.data()),
              count)
        << simd_target_name(t);
  }
}

TEST(SimdDispatch, NamesParseRoundTrip) {
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kAvx2,
                       SimdTarget::kAvx512, SimdTarget::kNeon}) {
    SimdTarget parsed;
    ASSERT_TRUE(parse_simd_target(simd_target_name(t), parsed));
    EXPECT_EQ(parsed, t);
  }
  SimdTarget ignored;
  EXPECT_FALSE(parse_simd_target("bogus", ignored));
  EXPECT_FALSE(parse_simd_target("", ignored));
}

TEST(SimdDispatch, ScalarAlwaysRunnableAndListedFirst) {
  const auto targets = runnable_simd_targets();
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets.front(), SimdTarget::kScalar);
  EXPECT_TRUE(simd_target_runnable(SimdTarget::kScalar));
  for (SimdTarget t : targets) {
    EXPECT_TRUE(simd_target_runnable(t));
    EXPECT_NE(simd_kernel_for(t), nullptr);
    EXPECT_NE(simd_hits_kernel_for(t), nullptr);
    EXPECT_GE(simd_lanes(t), 1u);
  }
}

TEST(SimdDispatch, ForceSwitchesActiveTargetAndLanes) {
  TargetGuard guard;
  for (SimdTarget t : runnable_simd_targets()) {
    force_simd_target(t);
    EXPECT_EQ(active_simd_target(), t);
    EXPECT_EQ(active_simd_lanes(), simd_lanes(t));
    // The hot entry point must route through the forced target and still be
    // bit-exact vs scalar.
    const double q[2] = {1.5, -2.5};
    const double block[6] = {0.25, 1.0, 2.0, -0.5, 3.0, 4.0};  // stride 3
    double ref[3], got[3];
    sq_dist_block_soa_scalar(q, block, 3, 3, 2, ref);
    sq_dist_block_soa(q, block, 3, 3, 2, got);
    EXPECT_EQ(std::memcmp(ref, got, sizeof ref), 0) << simd_target_name(t);
    std::uint32_t hits[3];
    const double r2 = ref[1];  // point 1 sits exactly at r: not a hit
    std::size_t want = 0;
    for (double d : ref) want += d < r2;
    EXPECT_EQ(sq_dist_block_soa_hits(q, block, 3, 3, 2, r2, got, hits), want)
        << simd_target_name(t);
    EXPECT_EQ(std::memcmp(ref, got, sizeof ref), 0) << simd_target_name(t);
  }
}

TEST(SimdDispatch, ForcingUnrunnableTargetThrows) {
  TargetGuard guard;
  for (SimdTarget t : {SimdTarget::kAvx2, SimdTarget::kAvx512,
                       SimdTarget::kNeon}) {
    if (simd_target_runnable(t)) continue;
    EXPECT_THROW(force_simd_target(t), std::invalid_argument);
  }
  // Whatever happened above, scalar is always forceable.
  force_simd_target(SimdTarget::kScalar);
  EXPECT_EQ(active_simd_target(), SimdTarget::kScalar);
}

}  // namespace
}  // namespace udb
