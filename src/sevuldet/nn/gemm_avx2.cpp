// The GEMM family for AVX2 (compiled with -mavx2): eight lanes, a
// 4 x 2-vector register tile in the 16 ymm registers. Only reached after
// a cpuid check (kernels.cpp).
#include "sevuldet/nn/gemm_tiles.hpp"

namespace sevuldet::nn::kernels::detail {

GemmVariant gemm_variant_avx2() { return Family<8, 2, 4>::variant("avx2"); }

}  // namespace sevuldet::nn::kernels::detail
