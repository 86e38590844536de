// The GEMM family for AVX-512F (compiled with -mavx512f): sixteen lanes,
// an 8 x 2-vector register tile in the 32 zmm registers, so a 16-column
// product still runs eight independent chains. Only reached after a
// cpuid check (kernels.cpp).
#include "sevuldet/nn/gemm_tiles.hpp"

namespace sevuldet::nn::kernels::detail {

GemmVariant gemm_variant_avx512() {
  return Family<16, 2, 8>::variant("avx512");
}

}  // namespace sevuldet::nn::kernels::detail
