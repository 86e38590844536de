#include "sevuldet/nn/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sevuldet/util/metrics.hpp"

namespace sevuldet::nn::kernels {

namespace {

// Vector width for the ISA this TU is compiled for. The micro-kernel is
// written with GCC/Clang portable vector extensions instead of relying
// on the loop vectorizer: with a plain float array the compiler keeps
// the accumulator tile in stack memory (a load+store per FMA), which is
// slower than the naive loop. Explicit vector-typed locals are register
// allocated. Lane width never changes results: lanes are independent C
// elements, and each element's accumulation chain stays ascending-p.
#if defined(__AVX512F__)
constexpr int VL = 16;
#elif defined(__AVX__)
constexpr int VL = 8;
#else
constexpr int VL = 4;  // SSE2 baseline of x86-64
#endif
// aligned(4): loads/stores through this type are unaligned (tensor rows
// are not padded to vector boundaries). may_alias: the underlying
// storage is plain float arrays.
typedef float vf __attribute__((vector_size(VL * sizeof(float)), aligned(4),
                                may_alias));

// Register tile: MR rows x NV vectors. 8 vector accumulators + NV B-row
// vectors + a broadcast leave headroom in 16 registers on every ISA.
constexpr int MR = 4;
constexpr int NV = 2;
constexpr int NR = NV * VL;
// Cache tiles: keep the A panel (MC*KC) and the active B panel rows
// L2-resident for the shapes SEVulDetNet produces. Tiles never change
// results (see header), only speed.
constexpr int MC = 64;
constexpr int KC = 256;
constexpr int NC = 256;

// One MR x NR tile of C += A-panel * B-panel over kc reduction steps.
// AT selects the A layout at COMPILE TIME so the indexing folds to a
// constant-stride form the vectorizer can reason about: AT=false reads
// a[ir*lda + p] (normal [m,k]), AT=true reads a[p*lda + ir] (fused
// transpose of a [k,m] matrix).
//
// The tile is loaded from C, accumulated in ascending-p order, and
// stored back — the per-element addition chain is exactly the naive
// reference's, so blocking never changes a bit.
// MRT is the live row count (1..MR): row edges get their own fully
// unrolled instantiation instead of falling back to scalar code, which
// matters because the dense head runs [1,k]x[k,n] products where every
// tile is a row edge.
template <bool AT, int MRT>
inline void micro_full(int kc, const float* __restrict__ a, std::ptrdiff_t lda,
                       const float* __restrict__ b, int ldb,
                       float* __restrict__ c, int ldc) {
  vf acc[MRT][NV];
  for (int ir = 0; ir < MRT; ++ir) {
    for (int jv = 0; jv < NV; ++jv) {
      acc[ir][jv] = *reinterpret_cast<const vf*>(c + ir * ldc + jv * VL);
    }
  }
  for (int p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b + static_cast<std::ptrdiff_t>(p) * ldb;
    vf bv[NV];
    for (int jv = 0; jv < NV; ++jv) {
      bv[jv] = *reinterpret_cast<const vf*>(brow + jv * VL);
    }
    for (int ir = 0; ir < MRT; ++ir) {
      const float av = AT ? a[p * lda + ir] : a[ir * lda + p];
      for (int jv = 0; jv < NV; ++jv) acc[ir][jv] += av * bv[jv];
    }
  }
  for (int ir = 0; ir < MRT; ++ir) {
    for (int jv = 0; jv < NV; ++jv) {
      *reinterpret_cast<vf*>(c + ir * ldc + jv * VL) = acc[ir][jv];
    }
  }
}

// Partial tile at the m/n edges; identical accumulation order.
template <bool AT>
inline void micro_edge(int mr, int nr, int kc, const float* __restrict__ a,
                       std::ptrdiff_t lda, const float* __restrict__ b, int ldb,
                       float* __restrict__ c, int ldc) {
  float acc[MR][NR];
  for (int ir = 0; ir < mr; ++ir) {
    for (int jr = 0; jr < nr; ++jr) acc[ir][jr] = c[ir * ldc + jr];
  }
  for (int p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b + static_cast<std::ptrdiff_t>(p) * ldb;
    for (int ir = 0; ir < mr; ++ir) {
      const float av = AT ? a[p * lda + ir] : a[ir * lda + p];
      for (int jr = 0; jr < nr; ++jr) acc[ir][jr] += av * brow[jr];
    }
  }
  for (int ir = 0; ir < mr; ++ir) {
    for (int jr = 0; jr < nr; ++jr) c[ir * ldc + jr] = acc[ir][jr];
  }
}

// Shared driver for gemm / gemm_at_b. Loop order jc -> pc -> ic keeps p
// ascending for every output element across KC blocks. lda is the leading
// dimension of A as stored: k for AT=false ([m,k]), m for AT=true ([k,m]).
template <bool AT>
void gemm_blocked(int m, int n, int k, const float* a, std::ptrdiff_t lda,
                  const float* b, float* c) {
  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      for (int ic = 0; ic < m; ic += MC) {
        const int mc = std::min(MC, m - ic);
        for (int j = 0; j < nc; j += NR) {
          const int nr = std::min(NR, nc - j);
          for (int i = 0; i < mc; i += MR) {
            const int mr = std::min(MR, mc - i);
            const float* at = AT ? a + static_cast<std::ptrdiff_t>(pc) * lda + (ic + i)
                                 : a + static_cast<std::ptrdiff_t>(ic + i) * lda + pc;
            const float* bt = b + static_cast<std::ptrdiff_t>(pc) * n + (jc + j);
            float* ct = c + static_cast<std::ptrdiff_t>(ic + i) * n + (jc + j);
            if (nr == NR) {
              switch (mr) {
                case 4: micro_full<AT, 4>(kc, at, lda, bt, n, ct, n); break;
                case 3: micro_full<AT, 3>(kc, at, lda, bt, n, ct, n); break;
                case 2: micro_full<AT, 2>(kc, at, lda, bt, n, ct, n); break;
                default: micro_full<AT, 1>(kc, at, lda, bt, n, ct, n); break;
              }
            } else {
              micro_edge<AT>(mr, nr, kc, at, lda, bt, n, ct, n);
            }
          }
        }
      }
    }
  }
}

// gemm_a_bt microkernels. Each C element is an independent
// single-accumulator dot over the full k extent (matching the reference
// chain: local accumulator from zero, one final add into C), so k is
// never blocked and lanes are never split across one dot. The main path
// packs B^T into a contiguous [k, n] buffer first: the reduction then
// reads unit-stride rows and the MRT x NV vector tile applies, with each
// lane carrying one whole chain.
template <int MRT>
inline void micro_abt(int k, const float* __restrict__ a, int lda,
                      const float* __restrict__ bt, int ldb,
                      float* __restrict__ c, int ldc) {
  vf acc[MRT][NV] = {};
  for (int p = 0; p < k; ++p) {
    const float* __restrict__ brow = bt + static_cast<std::ptrdiff_t>(p) * ldb;
    vf bv[NV];
    for (int jv = 0; jv < NV; ++jv) {
      bv[jv] = *reinterpret_cast<const vf*>(brow + jv * VL);
    }
    for (int ir = 0; ir < MRT; ++ir) {
      const float av = a[ir * lda + p];
      for (int jv = 0; jv < NV; ++jv) acc[ir][jv] += av * bv[jv];
    }
  }
  for (int ir = 0; ir < MRT; ++ir) {
    for (int jv = 0; jv < NV; ++jv) {
      vf* cv = reinterpret_cast<vf*>(c + ir * ldc + jv * VL);
      *cv = *cv + acc[ir][jv];
    }
  }
}

// Column remainder: scalar DR x DC tile of dots against the original
// [n, k] layout (rows are contiguous there, so the loads stay unit
// stride without packing).
constexpr int DR = 2;
constexpr int DC = 4;

inline void micro_dot_edge(int dr, int dc, int k, const float* __restrict__ a,
                           int lda, const float* __restrict__ b, int ldb,
                           float* __restrict__ c, int ldc) {
  float acc[DR][DC] = {};
  for (int p = 0; p < k; ++p) {
    for (int ir = 0; ir < dr; ++ir) {
      const float av = a[static_cast<std::ptrdiff_t>(ir) * lda + p];
      for (int jr = 0; jr < dc; ++jr) {
        acc[ir][jr] += av * b[static_cast<std::ptrdiff_t>(jr) * ldb + p];
      }
    }
  }
  for (int ir = 0; ir < dr; ++ir) {
    for (int jr = 0; jr < dc; ++jr) c[ir * ldc + jr] += acc[ir][jr];
  }
}

constexpr int TS = 32;  // transpose tile (floats); 2 * 4KB per tile pair

}  // namespace

void gemm(int m, int n, int k, const float* a, const float* b, float* c) {
  // GEMM is the NN hot path; the counter costs one relaxed load when
  // metrics are off, and the FLOP tally lets --metrics-out report
  // throughput without instrumenting any caller.
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  gemm_blocked<false>(m, n, k, a, /*lda=*/k, b, c);
}

void gemm_at_b(int m, int n, int k, const float* a, const float* b, float* c) {
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  gemm_blocked<true>(m, n, k, a, /*lda=*/m, b, c);
}

void gemm_a_bt(int m, int n, int k, const float* a, const float* b, float* c) {
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  const int n_main = n - n % NR;
  if (n_main > 0) {
    // Pack the leading n_main rows of B ([n, k] row major) as B^T
    // ([k, n_main]) so the vector microkernel streams unit-stride rows.
    // The buffer is recycled across calls: steady state allocates
    // nothing (same contract as the tensor arena).
    static thread_local std::vector<float> packed;
    packed.resize(static_cast<std::size_t>(k) * n_main);
    transpose_copy(n_main, k, b, packed.data());
    for (int i = 0; i < m; i += MR) {
      const int mr = std::min(MR, m - i);
      const float* at = a + static_cast<std::ptrdiff_t>(i) * k;
      for (int j = 0; j < n_main; j += NR) {
        const float* bt = packed.data() + j;
        float* ct = c + static_cast<std::ptrdiff_t>(i) * n + j;
        switch (mr) {
          case 4: micro_abt<4>(k, at, k, bt, n_main, ct, n); break;
          case 3: micro_abt<3>(k, at, k, bt, n_main, ct, n); break;
          case 2: micro_abt<2>(k, at, k, bt, n_main, ct, n); break;
          default: micro_abt<1>(k, at, k, bt, n_main, ct, n); break;
        }
      }
    }
  }
  for (int i = 0; i < m; i += DR) {
    const int dr = std::min(DR, m - i);
    for (int j = n_main; j < n; j += DC) {
      const int dc = std::min(DC, n - j);
      micro_dot_edge(dr, dc, k, a + static_cast<std::ptrdiff_t>(i) * k, k,
                     b + static_cast<std::ptrdiff_t>(j) * k, k,
                     c + static_cast<std::ptrdiff_t>(i) * n + j, n);
    }
  }
}

void gemm_naive(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    const float* __restrict__ arow = a + static_cast<std::ptrdiff_t>(i) * k;
    float* __restrict__ crow = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* __restrict__ brow = b + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at_b_naive(int m, int n, int k, const float* a, const float* b,
                     float* c) {
  for (int p = 0; p < k; ++p) {
    const float* __restrict__ arow = a + static_cast<std::ptrdiff_t>(p) * m;
    const float* __restrict__ brow = b + static_cast<std::ptrdiff_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      float* __restrict__ crow = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt_naive(int m, int n, int k, const float* a, const float* b,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    const float* __restrict__ arow = a + static_cast<std::ptrdiff_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* __restrict__ brow = b + static_cast<std::ptrdiff_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[static_cast<std::ptrdiff_t>(i) * n + j] += acc;
    }
  }
}

void axpy(std::size_t n, float alpha, const float* __restrict__ x,
          float* __restrict__ y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void add_inplace(std::size_t n, const float* __restrict__ x,
                 float* __restrict__ y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void mul_accumulate(std::size_t n, const float* __restrict__ x,
                    const float* __restrict__ y, float* __restrict__ out) {
  for (std::size_t i = 0; i < n; ++i) out[i] += x[i] * y[i];
}

float dot(std::size_t n, const float* __restrict__ x,
          const float* __restrict__ y) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void copy(std::size_t n, const float* src, float* dst) {
  if (n > 0) std::memcpy(dst, src, n * sizeof(float));
}

void col_sum_add(int rows, int cols, const float* a, float* out) {
  for (int r = 0; r < rows; ++r) {
    add_inplace(static_cast<std::size_t>(cols),
                a + static_cast<std::ptrdiff_t>(r) * cols, out);
  }
}

void row_sum_add(int rows, int cols, const float* a, float* out) {
  for (int r = 0; r < rows; ++r) {
    const float* __restrict__ row = a + static_cast<std::ptrdiff_t>(r) * cols;
    float acc = 0.0f;
    for (int c = 0; c < cols; ++c) acc += row[c];
    out[r] += acc;
  }
}

void transpose_copy(int m, int n, const float* a, float* out) {
  for (int i0 = 0; i0 < m; i0 += TS) {
    const int i1 = std::min(i0 + TS, m);
    for (int j0 = 0; j0 < n; j0 += TS) {
      const int j1 = std::min(j0 + TS, n);
      // j outer / i inner: writes to out row j are unit-stride.
      for (int j = j0; j < j1; ++j) {
        float* __restrict__ orow = out + static_cast<std::ptrdiff_t>(j) * m;
        for (int i = i0; i < i1; ++i) {
          orow[i] = a[static_cast<std::ptrdiff_t>(i) * n + j];
        }
      }
    }
  }
}

void gemm_s8(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
             std::int32_t* c) {
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  // i-p-j with widening loads: the inner loop is a unit-stride
  // int8 -> int32 multiply-accumulate the vectorizer handles, and the
  // order matches the naive oracle (moot for integers — exact anyway).
  for (int i = 0; i < m; ++i) {
    const std::int8_t* __restrict__ arow = a + static_cast<std::ptrdiff_t>(i) * k;
    std::int32_t* __restrict__ crow = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const std::int32_t av = arow[p];
      const std::int8_t* __restrict__ brow =
          b + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = 0; j < n; ++j) {
        crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
}

void gemm_s8_naive(int m, int n, int k, const std::int8_t* a,
                   const std::int8_t* b, std::int32_t* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[static_cast<std::ptrdiff_t>(i) * k + p]) *
               static_cast<std::int32_t>(b[static_cast<std::ptrdiff_t>(p) * n + j]);
      }
      c[static_cast<std::ptrdiff_t>(i) * n + j] += acc;
    }
  }
}

std::uint16_t float_to_half(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  f &= 0x7fffffffu;
  if (f >= 0x7f800000u) {  // Inf / NaN: keep class, truncate payload, stay quiet
    const std::uint32_t payload =
        f > 0x7f800000u ? (0x0200u | ((f >> 13) & 0x03ffu)) : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | payload);
  }
  const int exp = static_cast<int>(f >> 23) - 127;
  if (exp > 15) return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow
  if (f < 0x00800000u) return sign;  // float subnormal: far below half range
  const std::uint32_t mant = (f & 0x007fffffu) | 0x00800000u;  // implicit bit
  // Align the 24-bit significand to the half's 11-bit frame (shift grows
  // for subnormal halves) and round once, to nearest even. Reassembling
  // exponent and mantissa by ADDITION lets a rounding carry ripple into
  // the exponent — including 65520 -> Inf.
  const bool normal = exp >= -14;
  const int shift = normal ? 13 : 13 + (-14 - exp);
  if (shift >= 32) return sign;
  std::uint32_t rounded = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (rounded & 1u))) ++rounded;
  const std::uint32_t bits =
      normal ? ((static_cast<std::uint32_t>(exp + 14) << 10) + rounded)
             : rounded;
  return static_cast<std::uint16_t>(sign | bits);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  std::uint32_t exp = (half >> 10) & 0x1fu;
  std::uint32_t mant = half & 0x03ffu;
  std::uint32_t bits;
  if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else if (exp != 0) {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  } else if (mant == 0) {
    bits = sign;
  } else {  // subnormal: renormalize into the float frame
    std::uint32_t shift = 0;
    while ((mant & 0x0400u) == 0) {
      mant <<= 1;
      ++shift;
    }
    bits = sign | ((113u - shift) << 23) | ((mant & 0x03ffu) << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

void float_to_half_buffer(std::size_t n, const float* src, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_half(src[i]);
}

void half_to_float_buffer(std::size_t n, const std::uint16_t* src, float* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = half_to_float(src[i]);
}

void gemm_f16(int m, int n, int k, const std::uint16_t* a,
              const std::uint16_t* b, float* c) {
  // Widen once into recycled scratch, then reuse the blocked fp32 GEMM:
  // fastest available reduction, and the chain over the widened values
  // is exactly the fp32 contract (so f16 == f16_naive bitwise).
  static thread_local std::vector<float> wa, wb;
  wa.resize(static_cast<std::size_t>(m) * k);
  wb.resize(static_cast<std::size_t>(k) * n);
  half_to_float_buffer(wa.size(), a, wa.data());
  half_to_float_buffer(wb.size(), b, wb.data());
  gemm(m, n, k, wa.data(), wb.data(), c);
}

void gemm_f16_naive(int m, int n, int k, const std::uint16_t* a,
                    const std::uint16_t* b, float* c) {
  std::vector<float> wa(static_cast<std::size_t>(m) * k);
  std::vector<float> wb(static_cast<std::size_t>(k) * n);
  half_to_float_buffer(wa.size(), a, wa.data());
  half_to_float_buffer(wb.size(), b, wb.data());
  gemm_naive(m, n, k, wa.data(), wb.data(), c);
}

void transpose_add(int m, int n, const float* a, float* out) {
  for (int i0 = 0; i0 < m; i0 += TS) {
    const int i1 = std::min(i0 + TS, m);
    for (int j0 = 0; j0 < n; j0 += TS) {
      const int j1 = std::min(j0 + TS, n);
      for (int j = j0; j < j1; ++j) {
        float* __restrict__ orow = out + static_cast<std::ptrdiff_t>(j) * m;
        for (int i = i0; i < i1; ++i) {
          orow[i] += a[static_cast<std::ptrdiff_t>(i) * n + j];
        }
      }
    }
  }
}

}  // namespace sevuldet::nn::kernels
