// Register-tiled fp32 GEMM family, written once as templates over the
// vector width and compiled once per ISA: gemm_sse2.cpp (the x86-64
// baseline), gemm_avx2.cpp and gemm_avx512.cpp, each with its own
// -m flags and -ffp-contract=off. kernels.cpp picks one variant at
// startup (see gemm_variants() in kernels.hpp).
//
// Exactness: a vector lane is one output element, and every element's
// chain is the naive oracle's — loaded from C (or, for gemm_a_bt, a
// local accumulator from zero added to C once) and summed in ascending
// reduction order. Tile shape, lane width and cache blocking therefore
// change only speed, never a bit.
//
// Shape fitting: a column block is covered by the widest tiles first
// (NV vectors of VL lanes), then single VL-, 8- and 4-lane vectors, and
// the last 1-3 columns by a scalar tile with compile-time extents, so
// narrow products (n = 1 attention scores, n = 16 convolutions under
// AVX-512) keep their accumulators in registers.
//
// Everything below the declarations sits in an anonymous namespace on
// purpose: each ISA translation unit gets its own internal-linkage copy.
// An inline entity with external linkage instantiated in the AVX-512 TU
// would be a COMDAT symbol the linker may pick for every caller,
// baseline-only CPUs included. For the same reason the code uses no
// standard-library templates.
#pragma once

#include <cstddef>

#include "sevuldet/nn/kernels.hpp"

namespace sevuldet::nn::kernels::detail {

// One per ISA translation unit.
GemmVariant gemm_variant_sse2();
GemmVariant gemm_variant_avx2();
GemmVariant gemm_variant_avx512();

/// Recycled per-thread buffer of at least `n` floats for packing B^T in
/// gemm_a_bt (defined in kernels.cpp, so steady state allocates nothing).
float* pack_buffer(std::size_t n);

namespace {

// aligned(4): rows are not padded to vector boundaries, so every access
// through these types is an unaligned load/store. may_alias: the storage
// is plain float arrays.
template <int W>
struct Lanes;
template <>
struct Lanes<4> {
  typedef float type __attribute__((vector_size(16), aligned(4), may_alias));
};
template <>
struct Lanes<8> {
  typedef float type __attribute__((vector_size(32), aligned(4), may_alias));
};
template <>
struct Lanes<16> {
  typedef float type __attribute__((vector_size(64), aligned(4), may_alias));
};

// Operand layouts. kAB: C += A[m,k] B[k,n]. kAtB: C += A^T B with A
// stored [k,m]. kABt: C += A B^T with B already packed as B^T [k,n]; its
// chains start from zero and are added to C once, like the oracle's dot.
enum class Form { kAB, kAtB, kABt };

inline int imin(int a, int b) { return a < b ? a : b; }

template <int N>
struct Rows {
  static constexpr int value = N;
};

// Calls f(Rows<R>{}, i) over rows [0, m): full TR-row tiles, then the
// tail as power-of-two tiles (a 7-row tail runs 4 + 2 + 1), so every
// tile has compile-time extents and only log2(TR) tail shapes exist.
// Rows are independent chains, so the split never changes a result.
template <int N, class F>
inline void row_tail(int i, int r, const F& f) {
  if (r >= N) {
    f(Rows<N>{}, i);
    i += N;
    r -= N;
  }
  if constexpr (N > 1) row_tail<N / 2>(i, r, f);
}

template <int TR, class F>
inline void for_row_tiles(int m, const F& f) {
  static_assert((TR & (TR - 1)) == 0, "row tiles must be a power of two");
  int i = 0;
  for (; i + TR <= m; i += TR) f(Rows<TR>{}, i);
  if constexpr (TR > 1) row_tail<TR / 2>(i, m - i, f);
}

// One R x (NVEC * W) tile over kc reduction steps.
template <Form F, int R, int W, int NVEC>
inline void tile_vec(int kc, const float* __restrict__ a, std::ptrdiff_t lda,
                     const float* __restrict__ b, std::ptrdiff_t ldb,
                     float* __restrict__ c, std::ptrdiff_t ldc) {
  typedef typename Lanes<W>::type V;
  V acc[R][NVEC];
  for (int ir = 0; ir < R; ++ir) {
    for (int jv = 0; jv < NVEC; ++jv) {
      acc[ir][jv] = F == Form::kABt
                        ? V{}
                        : *reinterpret_cast<const V*>(c + ir * ldc + jv * W);
    }
  }
  for (int p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b + p * ldb;
    V bv[NVEC];
    for (int jv = 0; jv < NVEC; ++jv) {
      bv[jv] = *reinterpret_cast<const V*>(brow + jv * W);
    }
    for (int ir = 0; ir < R; ++ir) {
      const float av = F == Form::kAtB ? a[p * lda + ir] : a[ir * lda + p];
      for (int jv = 0; jv < NVEC; ++jv) acc[ir][jv] += av * bv[jv];
    }
  }
  for (int ir = 0; ir < R; ++ir) {
    for (int jv = 0; jv < NVEC; ++jv) {
      V* cv = reinterpret_cast<V*>(c + ir * ldc + jv * W);
      *cv = F == Form::kABt ? *cv + acc[ir][jv] : acc[ir][jv];
    }
  }
}

// The last 1-3 columns: the same chains on scalars, with compile-time
// extents so the R x NC accumulators are register-allocated.
template <Form F, int R, int NC>
inline void tile_scalar(int kc, const float* __restrict__ a, std::ptrdiff_t lda,
                        const float* __restrict__ b, std::ptrdiff_t ldb,
                        float* __restrict__ c, std::ptrdiff_t ldc) {
  float acc[R][NC];
  for (int ir = 0; ir < R; ++ir) {
    for (int jr = 0; jr < NC; ++jr) {
      acc[ir][jr] = F == Form::kABt ? 0.0f : c[ir * ldc + jr];
    }
  }
  for (int p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b + p * ldb;
    for (int ir = 0; ir < R; ++ir) {
      const float av = F == Form::kAtB ? a[p * lda + ir] : a[ir * lda + p];
      for (int jr = 0; jr < NC; ++jr) acc[ir][jr] += av * brow[jr];
    }
  }
  for (int ir = 0; ir < R; ++ir) {
    for (int jr = 0; jr < NC; ++jr) {
      float& cv = c[ir * ldc + jr];
      cv = F == Form::kABt ? cv + acc[ir][jr] : acc[ir][jr];
    }
  }
}

// The GEMM family for one register file: full tiles are MR rows x NV
// vectors of VL lanes; scalar tiles are SR rows.
template <int VL, int NV, int MR>
struct Family {
  static constexpr int SR = 8;
  // Cache blocks: keep the A panel (MC x KC) and the active B panel rows
  // L2-resident for the shapes SEVulDetNet produces.
  static constexpr int MC = 64;
  static constexpr int KC = 256;
  static constexpr int NC = 256;

  // a/b/c point at the block's first row / column.
  template <Form F, int W, int NVEC>
  static void stripe_vec(int mc, int kc, const float* a, std::ptrdiff_t lda,
                         const float* b, std::ptrdiff_t ldb, float* c,
                         std::ptrdiff_t ldc) {
    for_row_tiles<MR>(mc, [&](auto rows, int i) {
      tile_vec<F, decltype(rows)::value, W, NVEC>(
          kc, F == Form::kAtB ? a + i : a + i * lda, lda, b, ldb, c + i * ldc,
          ldc);
    });
  }

  template <Form F, int NCOLS>
  static void stripe_scalar(int mc, int kc, const float* a, std::ptrdiff_t lda,
                            const float* b, std::ptrdiff_t ldb, float* c,
                            std::ptrdiff_t ldc) {
    for_row_tiles<SR>(mc, [&](auto rows, int i) {
      tile_scalar<F, decltype(rows)::value, NCOLS>(
          kc, F == Form::kAtB ? a + i : a + i * lda, lda, b, ldb, c + i * ldc,
          ldc);
    });
  }

  // Columns [0, nc) of one mc x kc block, widest tiles first.
  template <Form F>
  static void block(int mc, int nc, int kc, const float* a, std::ptrdiff_t lda,
                    const float* b, std::ptrdiff_t ldb, float* c,
                    std::ptrdiff_t ldc) {
    int j = 0;
    for (; j + NV * VL <= nc; j += NV * VL) {
      stripe_vec<F, VL, NV>(mc, kc, a, lda, b + j, ldb, c + j, ldc);
    }
    if constexpr (NV > 1) {
      for (; j + VL <= nc; j += VL) {
        stripe_vec<F, VL, 1>(mc, kc, a, lda, b + j, ldb, c + j, ldc);
      }
    }
    if constexpr (VL > 8) {
      if (j + 8 <= nc) {
        stripe_vec<F, 8, 1>(mc, kc, a, lda, b + j, ldb, c + j, ldc);
        j += 8;
      }
    }
    if constexpr (VL > 4) {
      if (j + 4 <= nc) {
        stripe_vec<F, 4, 1>(mc, kc, a, lda, b + j, ldb, c + j, ldc);
        j += 4;
      }
    }
    switch (nc - j) {
      case 3: stripe_scalar<F, 3>(mc, kc, a, lda, b + j, ldb, c + j, ldc); break;
      case 2: stripe_scalar<F, 2>(mc, kc, a, lda, b + j, ldb, c + j, ldc); break;
      case 1: stripe_scalar<F, 1>(mc, kc, a, lda, b + j, ldb, c + j, ldc); break;
      default: break;
    }
  }

  // gemm / gemm_at_b: loop order jc -> pc -> ic keeps the reduction
  // ascending for every element across KC blocks (each block reloads
  // the partial C tile). lda is k for kAB ([m,k]) and m for kAtB ([k,m]).
  template <Form F>
  static void blocked(int m, int n, int k, const float* a, std::ptrdiff_t lda,
                      const float* b, float* c) {
    for (int jc = 0; jc < n; jc += NC) {
      const int nc = imin(NC, n - jc);
      for (int pc = 0; pc < k; pc += KC) {
        const int kc = imin(KC, k - pc);
        for (int ic = 0; ic < m; ic += MC) {
          const int mc = imin(MC, m - ic);
          const float* at = F == Form::kAtB ? a + pc * lda + ic
                                            : a + ic * lda + pc;
          block<F>(mc, nc, kc, at, lda,
                   b + static_cast<std::ptrdiff_t>(pc) * n + jc, n,
                   c + static_cast<std::ptrdiff_t>(ic) * n + jc, n);
        }
      }
    }
  }

  static void gemm(int m, int n, int k, const float* a, const float* b,
                   float* c) {
    blocked<Form::kAB>(m, n, k, a, k, b, c);
  }

  static void gemm_at_b(int m, int n, int k, const float* a, const float* b,
                        float* c) {
    blocked<Form::kAtB>(m, n, k, a, m, b, c);
  }

  // Each element is one dot over the full k extent, so k is never
  // blocked. B ([n,k]) is packed as B^T ([k,n]) so every tile streams
  // unit-stride rows.
  static void gemm_a_bt(int m, int n, int k, const float* a, const float* b,
                        float* c) {
    if (m <= 0 || n <= 0) return;
    float* packed = pack_buffer(static_cast<std::size_t>(k) * n);
    transpose_copy(n, k, b, packed);
    block<Form::kABt>(m, n, k, a, k, packed, n, c, n);
  }

  static GemmVariant variant(const char* isa) {
    return GemmVariant{isa, &gemm, &gemm_at_b, &gemm_a_bt};
  }
};

}  // namespace
}  // namespace sevuldet::nn::kernels::detail
