#include "sevuldet/nn/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sevuldet/nn/gemm_tiles.hpp"
#include "sevuldet/util/metrics.hpp"

namespace sevuldet::nn::kernels {

namespace {

std::vector<GemmVariant> detect_variants() {
  std::vector<GemmVariant> variants{detail::gemm_variant_sse2()};
#if defined(SEVULDET_KERNELS_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    variants.push_back(detail::gemm_variant_avx2());
  }
  if (__builtin_cpu_supports("avx512f")) {
    variants.push_back(detail::gemm_variant_avx512());
  }
#endif
  return variants;
}

const GemmVariant& active() { return gemm_variants().back(); }

constexpr int TS = 32;  // transpose tile (floats); 2 * 4KB per tile pair

}  // namespace

const std::vector<GemmVariant>& gemm_variants() {
  static const std::vector<GemmVariant> variants = detect_variants();
  return variants;
}

const char* kernel_isa() { return active().isa; }

float* detail::pack_buffer(std::size_t n) {
  static thread_local std::vector<float> packed;
  packed.resize(n);
  return packed.data();
}

void gemm(int m, int n, int k, const float* a, const float* b, float* c) {
  // GEMM is the NN hot path; the counter costs one relaxed load when
  // metrics are off, and the FLOP tally lets --metrics-out report
  // throughput without instrumenting any caller.
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  active().gemm(m, n, k, a, b, c);
}

void gemm_at_b(int m, int n, int k, const float* a, const float* b, float* c) {
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  active().gemm_at_b(m, n, k, a, b, c);
}

void gemm_a_bt(int m, int n, int k, const float* a, const float* b, float* c) {
  util::metrics::counter_add("nn.gemm_calls");
  util::metrics::counter_add("nn.gemm_flops", 2LL * m * n * k);
  active().gemm_a_bt(m, n, k, a, b, c);
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
