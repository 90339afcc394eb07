// AVX-512F one-query-vs-SoA-block kernel: 8 doubles per vector, each lane one
// point. Same per-lane operation chain as the scalar reference (sub, mul,
// add in ascending k; no FMA, -ffp-contract=off), so results are
// bit-identical to sq_dist_block_soa_scalar. Uses only AVX-512 Foundation
// instructions; compiled when CMake detects -mavx512f, dispatched when CPUID
// reports avx512f.
//
// The range form compares each vector of distances with r2 in-register
// (_CMP_LT_OQ: strict, false on NaN, as the scalar `d2 < r2`) and appends the
// hit positions with one compress store. The 8-bit mask drives the low half
// of a 16 x int32 compress (AVX-512F has no 8-lane int32 compress without
// AVX-512VL); its upper lanes are masked off and never written.

#if defined(UDB_SIMD_COMPILED_AVX512)

#include <immintrin.h>

#include "common/simd_kernels.hpp"

namespace udb::detail {

void sq_dist_block_soa_avx512(const double* q, const double* block,
                              std::size_t count, std::size_t stride,
                              std::size_t dim, double* out) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t k = 0; k < dim; ++k) {
      const __m512d p = _mm512_loadu_pd(block + k * stride + i);
      const __m512d d = _mm512_sub_pd(_mm512_set1_pd(q[k]), p);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
    }
    _mm512_storeu_pd(out + i, acc);
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double diff = q[k] - block[k * stride + i];
      acc += diff * diff;
    }
    out[i] = acc;
  }
}

std::size_t sq_dist_block_soa_hits_avx512(const double* q, const double* block,
                                          std::size_t count,
                                          std::size_t stride, std::size_t dim,
                                          double r2, double* d2_out,
                                          std::uint32_t* hits_out) noexcept {
  const __m512d r2v = _mm512_set1_pd(r2);
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0,
                                         0, 0, 0, 0);
  std::size_t i = 0, n = 0;
  for (; i + 8 <= count; i += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t k = 0; k < dim; ++k) {
      const __m512d p = _mm512_loadu_pd(block + k * stride + i);
      const __m512d d = _mm512_sub_pd(_mm512_set1_pd(q[k]), p);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
    }
    _mm512_storeu_pd(d2_out + i, acc);
    const __mmask8 m = _mm512_cmp_pd_mask(acc, r2v, _CMP_LT_OQ);
    const __m512i pos =
        _mm512_add_epi32(lane, _mm512_set1_epi32(static_cast<int>(i)));
    _mm512_mask_compressstoreu_epi32(hits_out + n, m, pos);
    n += static_cast<std::size_t>(__builtin_popcount(m));
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double diff = q[k] - block[k * stride + i];
      acc += diff * diff;
    }
    d2_out[i] = acc;
    hits_out[n] = static_cast<std::uint32_t>(i);
    n += acc < r2;
  }
  return n;
}

}  // namespace udb::detail

#endif  // UDB_SIMD_COMPILED_AVX512
