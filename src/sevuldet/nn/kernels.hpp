// Blocked single-precision kernels for the NN hot path. Three GEMM
// variants cover every matmul the autograd tape performs — the two
// transposed forms are fused so no transposed operand is ever
// materialized:
//
//   gemm      C[m,n] += A[m,k]  * B[k,n]   (forward)
//   gemm_at_b C[m,n] += A[k,m]T * B[k,n]   (dB = A^T dOut)
//   gemm_a_bt C[m,n] += A[m,k]  * B[n,k]T  (dA = dOut B^T)
//
// The GEMM family is compiled once per ISA (SSE2, AVX2, AVX-512; see
// gemm_tiles.hpp) and the widest variant the CPU supports is chosen once
// at startup by a cpuid check. The other kernels are written for
// compiler auto-vectorization at the baseline ISA: unit-stride inner
// loops, restrict-qualified pointers.
//
// Determinism contract: each output element's floating-point
// accumulation chain is IDENTICAL to the retained *_naive reference
// (terms added in ascending reduction order, one accumulator per
// element). Cache blocking reloads the partial C tile instead of
// re-associating, so blocked and naive results are byte-identical on
// every ISA variant — tests/kernels_test.cpp asserts this bitwise for
// each variant the host supports, over adversarial shapes. Results (and
// so model files and fingerprints) do not depend on the CPU.
#pragma once

#include <cstddef>
#include <vector>

namespace sevuldet::nn::kernels {

// --- GEMM family (all accumulate into C) ----------------------------------
/// C[m,n] += A[m,k] * B[k,n]; row-major, leading dims = logical widths.
void gemm(int m, int n, int k, const float* a, const float* b, float* c);
/// C[m,n] += A^T * B with A stored [k,m] (no transpose materialized).
void gemm_at_b(int m, int n, int k, const float* a, const float* b, float* c);
/// C[m,n] += A * B^T with B stored [n,k] (dot-product form).
void gemm_a_bt(int m, int n, int k, const float* a, const float* b, float* c);

// --- ISA dispatch -----------------------------------------------------------
/// One compiled instance of the fp32 GEMM family.
struct GemmVariant {
  const char* isa;  // "sse2", "avx2", "avx512" ("generic" off x86)
  void (*gemm)(int m, int n, int k, const float* a, const float* b, float* c);
  void (*gemm_at_b)(int m, int n, int k, const float* a, const float* b,
                    float* c);
  void (*gemm_a_bt)(int m, int n, int k, const float* a, const float* b,
                    float* c);
};
/// Every variant this build carries that the running CPU can execute,
/// narrowest first. The last one is what gemm / gemm_at_b / gemm_a_bt
/// dispatch to; tests run each against the naive oracles.
const std::vector<GemmVariant>& gemm_variants();
/// ISA name of the dispatched variant (the `nn.kernel_isa` label).
const char* kernel_isa();

// Naive references, retained as the exactness oracle (identical
// accumulation chains, no blocking). The forward reference carries no
// sparsity short-circuit: 0 * NaN must propagate (see kernels_test).
void gemm_naive(int m, int n, int k, const float* a, const float* b, float* c);
void gemm_at_b_naive(int m, int n, int k, const float* a, const float* b,
                     float* c);
void gemm_a_bt_naive(int m, int n, int k, const float* a, const float* b,
                     float* c);

// --- level-1 helpers -------------------------------------------------------
/// y[i] += alpha * x[i]
void axpy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += x[i]
void add_inplace(std::size_t n, const float* x, float* y);
/// out[i] += x[i] * y[i]
void mul_accumulate(std::size_t n, const float* x, const float* y, float* out);
/// Single-accumulator dot product (ascending order — matches the scalar
/// reference chain, so callers stay bit-reproducible).
float dot(std::size_t n, const float* x, const float* y);
/// dst[i] = src[i]
void copy(std::size_t n, const float* src, float* dst);

// --- rowwise / colwise reductions -----------------------------------------
/// out[c] += sum_r a[r,c], rows accumulated in ascending order.
void col_sum_add(int rows, int cols, const float* a, float* out);
/// out[r] += sum_c a[r,c], cols accumulated in ascending order.
void row_sum_add(int rows, int cols, const float* a, float* out);

// --- transpose -------------------------------------------------------------
/// out[n,m] = a[m,n]^T, cache-tiled.
void transpose_copy(int m, int n, const float* a, float* out);
/// out[n,m] += a[m,n]^T, cache-tiled.
void transpose_add(int m, int n, const float* a, float* out);

}  // namespace sevuldet::nn::kernels
