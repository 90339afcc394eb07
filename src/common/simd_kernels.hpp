// Internal: per-target kernel declarations shared between the dispatch
// resolver (simd.cpp) and the ISA-specific translation units. Each kernel is
// only DEFINED when its TU is compiled with the matching ISA flags (CMake
// sets UDB_SIMD_COMPILED_* for both the kernel TU and simd.cpp, so the
// resolver never references an undefined symbol).

#pragma once

#include <cstddef>
#include <cstdint>

namespace udb::detail {

#if defined(UDB_SIMD_COMPILED_AVX2)
void sq_dist_block_soa_avx2(const double* q, const double* block,
                            std::size_t count, std::size_t stride,
                            std::size_t dim, double* out) noexcept;
#endif

#if defined(UDB_SIMD_COMPILED_AVX512)
void sq_dist_block_soa_avx512(const double* q, const double* block,
                              std::size_t count, std::size_t stride,
                              std::size_t dim, double* out) noexcept;
std::size_t sq_dist_block_soa_hits_avx512(const double* q, const double* block,
                                          std::size_t count,
                                          std::size_t stride, std::size_t dim,
                                          double r2, double* d2_out,
                                          std::uint32_t* hits_out) noexcept;
#endif

#if defined(UDB_SIMD_COMPILED_NEON)
void sq_dist_block_soa_neon(const double* q, const double* block,
                            std::size_t count, std::size_t stride,
                            std::size_t dim, double* out) noexcept;
#endif

}  // namespace udb::detail
