// The GEMM family at the build's baseline ISA (SSE2 on x86-64): four
// lanes, a 4 x 2-vector register tile in the 16 xmm registers.
#include "sevuldet/nn/gemm_tiles.hpp"

namespace sevuldet::nn::kernels::detail {

GemmVariant gemm_variant_sse2() {
#if defined(__SSE2__)
  return Family<4, 2, 4>::variant("sse2");
#else
  return Family<4, 2, 4>::variant("generic");
#endif
}

}  // namespace sevuldet::nn::kernels::detail
