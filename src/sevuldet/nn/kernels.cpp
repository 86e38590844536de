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
