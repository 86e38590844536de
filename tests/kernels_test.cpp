// Exactness and reuse properties of the blocked kernel library and the
// tensor arena. The load-bearing invariant: every blocked kernel is
// BITWISE identical to its naive reference (same per-element FP
// accumulation chain), and arena-backed autograd is bitwise identical
// to heap-backed autograd — blocking and arenas change where floats
// live and how fast they move, never their values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/nn/layers.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/nn/tensor.hpp"
#include "sevuldet/util/rng.hpp"

namespace kernels = sevuldet::nn::kernels;
using sevuldet::nn::Graph;
using sevuldet::nn::GraphScope;
using sevuldet::nn::NodePtr;
using sevuldet::nn::Tensor;
using sevuldet::nn::TensorArena;
using sevuldet::util::Rng;

namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Shape set for the GEMM property tests: degenerate (empty, 1xN, Nx1),
// primes (never divisible by a tile size), the exact shapes SEVulDetNet
// produces, and shapes straddling the MC/KC/NC cache-block boundaries.
struct GemmShape {
  int m, n, k;
};
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 17, 1},   {17, 1, 3},    {7, 13, 17},  {0, 5, 4},
    {5, 0, 4},    {2, 3, 0},    {97, 101, 53}, {50, 32, 90}, {50, 32, 96},
    {1, 256, 224}, {1, 64, 256}, {1, 1, 64},   {64, 256, 256},
    {65, 257, 257}, {130, 300, 310}};

// The model's narrow and odd output widths (n = 1 attention scores and
// fc3, n = 16 convolutions, every vector-width remainder) against its
// reduction depths and the KC boundary, at row counts that leave row
// tails (9 = an 8-row tile + 1) and cross the MC block.
std::vector<GemmShape> variant_shapes() {
  std::vector<GemmShape> shapes(std::begin(kShapes), std::end(kShapes));
  for (const int m : {1, 3, 9, 17, 70}) {
    for (const int n : {1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 24, 31, 32, 33}) {
      for (const int k : {1, 14, 24, 72, 255, 256, 257, 300}) {
        shapes.push_back({m, n, k});
      }
    }
  }
  return shapes;
}

using GemmFn = void (*)(int, int, int, const float*, const float*, float*);

// Runs `variant_fn` and `naive` on the same inputs; A is [m,k] or [k,m]
// and B [k,n] or [n,k] by form, which only changes the buffer sizes.
// When `poison` is set, A gets exact zeros and B a NaN and an Inf, so
// 0 * NaN and 0 * Inf terms must poison their outputs.
::testing::AssertionResult variant_matches_naive(GemmFn variant_fn,
                                                 GemmFn naive,
                                                 const GemmShape& s, Rng& rng,
                                                 bool poison) {
  auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
  auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
  if (poison && !b.empty()) {
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    b[b.size() / 2] = std::numeric_limits<float>::quiet_NaN();
    b.front() = std::numeric_limits<float>::infinity();
  }
  auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
  auto c_var = c_ref;
  naive(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
  variant_fn(s.m, s.n, s.k, a.data(), b.data(), c_var.data());
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    // NaN payloads may legitimately differ with operand order; NaN-ness
    // may not.
    const bool both_nan = std::isnan(c_ref[i]) && std::isnan(c_var[i]);
    if (!both_nan && std::memcmp(&c_ref[i], &c_var[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << s.m << "x" << s.n << "x" << s.k << " element " << i << ": "
             << c_var[i] << " vs naive " << c_ref[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// ---------------------------------------------------------------------------
// every compiled ISA variant the host supports vs naive references
// ---------------------------------------------------------------------------

TEST(KernelsTest, DispatchRunsTheWidestSupportedVariant) {
  const auto& variants = kernels::gemm_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(kernels::kernel_isa(), variants.back().isa);
#if defined(__x86_64__)
  EXPECT_STREQ(variants.front().isa, "sse2");
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_STREQ(kernels::kernel_isa(), "avx512");
  } else if (__builtin_cpu_supports("avx2")) {
    EXPECT_STREQ(kernels::kernel_isa(), "avx2");
  }
#endif
}

TEST(KernelsTest, EveryVariantMatchesNaiveBitwise) {
  const auto shapes = variant_shapes();
  for (const kernels::GemmVariant& v : kernels::gemm_variants()) {
    Rng rng(29);
    auto check = [&](const GemmShape& s, bool poison) {
      EXPECT_TRUE(variant_matches_naive(v.gemm, kernels::gemm_naive, s, rng,
                                        poison))
          << v.isa << " gemm";
      EXPECT_TRUE(variant_matches_naive(v.gemm_at_b, kernels::gemm_at_b_naive,
                                        s, rng, poison))
          << v.isa << " gemm_at_b";
      EXPECT_TRUE(variant_matches_naive(v.gemm_a_bt, kernels::gemm_a_bt_naive,
                                        s, rng, poison))
          << v.isa << " gemm_a_bt";
    };
    for (const auto& s : shapes) {
      check(s, /*poison=*/false);
      // Poisoning every shape would double the run time; the 9-row
      // shapes reach every tile kind.
      if (s.m == 9) check(s, /*poison=*/true);
    }
  }
}

TEST(KernelsTest, EveryVariantPropagatesZeroTimesNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float a[2] = {0.0f, 0.0f};
  const float b[2] = {nan, 5.0f};
  for (const kernels::GemmVariant& v : kernels::gemm_variants()) {
    for (const GemmFn fn : {v.gemm, v.gemm_at_b, v.gemm_a_bt}) {
      // [1,2] x [2,1] is the same buffer set in all three layouts.
      float c = 0.0f;
      fn(1, 1, 2, a, b, &c);
      EXPECT_TRUE(std::isnan(c)) << v.isa << ": 0 * NaN must poison";
    }
  }
}

// ---------------------------------------------------------------------------
// blocked GEMM family vs naive references, bitwise
// ---------------------------------------------------------------------------

TEST(KernelsTest, GemmMatchesNaiveBitwise) {
  Rng rng(7);
  for (const auto& s : kShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    // Nonzero initial C: both kernels accumulate, never overwrite.
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_blk = c_ref;
    kernels::gemm_naive(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    kernels::gemm(s.m, s.n, s.k, a.data(), b.data(), c_blk.data());
    EXPECT_TRUE(bitwise_equal(c_ref, c_blk))
        << "gemm " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsTest, GemmAtBMatchesNaiveBitwise) {
  Rng rng(11);
  for (const auto& s : kShapes) {
    // A stored [k, m] — the fused-transpose layout of dB = A^T * dOut.
    const auto a = random_vec(static_cast<std::size_t>(s.k) * s.m, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_blk = c_ref;
    kernels::gemm_at_b_naive(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    kernels::gemm_at_b(s.m, s.n, s.k, a.data(), b.data(), c_blk.data());
    EXPECT_TRUE(bitwise_equal(c_ref, c_blk))
        << "gemm_at_b " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsTest, GemmABtMatchesNaiveBitwise) {
  Rng rng(13);
  for (const auto& s : kShapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    // B stored [n, k] — the fused-transpose layout of dA = dOut * B^T.
    const auto b = random_vec(static_cast<std::size_t>(s.n) * s.k, rng);
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_blk = c_ref;
    kernels::gemm_a_bt_naive(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    kernels::gemm_a_bt(s.m, s.n, s.k, a.data(), b.data(), c_blk.data());
    EXPECT_TRUE(bitwise_equal(c_ref, c_blk))
        << "gemm_a_bt " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsTest, TransposeMatchesScalarBitwise) {
  Rng rng(17);
  const int shapes[][2] = {{1, 1}, {1, 9}, {9, 1}, {7, 13}, {33, 65}, {100, 3}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1];
    const auto a = random_vec(static_cast<std::size_t>(m) * n, rng);
    std::vector<float> t_ref(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        t_ref[static_cast<std::size_t>(j) * m + i] =
            a[static_cast<std::size_t>(i) * n + j];
      }
    }
    std::vector<float> t_out(static_cast<std::size_t>(m) * n, 0.0f);
    kernels::transpose_copy(m, n, a.data(), t_out.data());
    EXPECT_TRUE(bitwise_equal(t_ref, t_out)) << "transpose_copy " << m << "x" << n;

    auto acc_ref = random_vec(static_cast<std::size_t>(m) * n, rng);
    auto acc_out = acc_ref;
    for (std::size_t i = 0; i < acc_ref.size(); ++i) acc_ref[i] += t_ref[i];
    kernels::transpose_add(m, n, a.data(), acc_out.data());
    EXPECT_TRUE(bitwise_equal(acc_ref, acc_out)) << "transpose_add " << m << "x" << n;
  }
}

TEST(KernelsTest, Level1HelpersMatchScalarBitwise) {
  Rng rng(19);
  const std::size_t n = 103;  // prime, forces vector epilogues
  const auto x = random_vec(n, rng);
  const auto y0 = random_vec(n, rng);

  auto y_ref = y0;
  for (std::size_t i = 0; i < n; ++i) y_ref[i] += 0.37f * x[i];
  auto y_out = y0;
  kernels::axpy(n, 0.37f, x.data(), y_out.data());
  EXPECT_TRUE(bitwise_equal(y_ref, y_out));

  y_ref = y0;
  for (std::size_t i = 0; i < n; ++i) y_ref[i] += x[i];
  y_out = y0;
  kernels::add_inplace(n, x.data(), y_out.data());
  EXPECT_TRUE(bitwise_equal(y_ref, y_out));

  const auto z = random_vec(n, rng);
  y_ref = y0;
  for (std::size_t i = 0; i < n; ++i) y_ref[i] += x[i] * z[i];
  y_out = y0;
  kernels::mul_accumulate(n, x.data(), z.data(), y_out.data());
  EXPECT_TRUE(bitwise_equal(y_ref, y_out));

  float dot_ref = 0.0f;
  for (std::size_t i = 0; i < n; ++i) dot_ref += x[i] * z[i];
  const float dot_out = kernels::dot(n, x.data(), z.data());
  EXPECT_EQ(std::memcmp(&dot_ref, &dot_out, sizeof(float)), 0);

  const int rows = 11, cols = 13;
  const auto mat = random_vec(static_cast<std::size_t>(rows) * cols, rng);
  std::vector<float> col_ref(static_cast<std::size_t>(cols), 0.0f);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      col_ref[static_cast<std::size_t>(c)] +=
          mat[static_cast<std::size_t>(r) * cols + c];
    }
  }
  std::vector<float> col_out(static_cast<std::size_t>(cols), 0.0f);
  kernels::col_sum_add(rows, cols, mat.data(), col_out.data());
  EXPECT_TRUE(bitwise_equal(col_ref, col_out));
}

// The old matmul skipped a_ik == 0 terms ("sparsity" shortcut). That
// silently converted 0 * NaN and 0 * Inf — both NaN by IEEE 754 — into
// "no contribution", masking poisoned activations. The kernels must
// propagate them.
TEST(KernelsTest, ZeroTimesNanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  const float a[2] = {0.0f, 0.0f};       // [1,2]
  const float b_nan[2] = {nan, 5.0f};    // [2,1]
  float c = 0.0f;
  kernels::gemm(1, 1, 2, a, b_nan, &c);
  EXPECT_TRUE(std::isnan(c)) << "0 * NaN must poison the output";

  const float b_inf[2] = {inf, 2.0f};
  c = 0.0f;
  kernels::gemm(1, 1, 2, a, b_inf, &c);
  EXPECT_TRUE(std::isnan(c)) << "0 * Inf must poison the output";

  // Same property through the autograd op (forward and both grads).
  auto an = sevuldet::nn::constant(Tensor(1, 2, {0.0f, 1.0f}));
  auto bn = sevuldet::nn::param(Tensor(2, 1, {nan, 2.0f}));
  auto out = sevuldet::nn::matmul(an, bn);
  EXPECT_TRUE(std::isnan(out->value.at(0, 0)));
}

// ---------------------------------------------------------------------------
// TensorArena
// ---------------------------------------------------------------------------

TEST(TensorArenaTest, SlotsAreZeroedAlignedAndRecycled) {
  TensorArena arena;
  float* p1 = arena.allocate(1);
  float* p2 = arena.allocate(3);
  // 64-byte stride quantization: 16-float spacing even for tiny slots.
  EXPECT_EQ(p2 - p1, 16);
  p1[0] = 42.0f;
  p2[0] = 43.0f;

  const std::size_t used = arena.used();
  const std::size_t chunks = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks);  // reset keeps capacity

  // Same sequence after reset: same slots, scrubbed back to zero.
  float* q1 = arena.allocate(1);
  float* q2 = arena.allocate(3);
  EXPECT_EQ(q1, p1);
  EXPECT_EQ(q2, p2);
  EXPECT_EQ(q1[0], 0.0f);
  EXPECT_EQ(q2[0], 0.0f);
  EXPECT_EQ(arena.used(), used);
  EXPECT_GE(arena.high_water(), used);
}

TEST(TensorArenaTest, GrowsByDoublingChunks) {
  TensorArena arena;
  // Larger than any chunk the arena currently has: must append, not fail.
  float* big = arena.allocate(1u << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big[0], 0.0f);
  EXPECT_GE(arena.capacity(), 1u << 20);
}

TEST(TensorTest, BorrowedCopyAndMoveSemantics) {
  float buf[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  Tensor t = Tensor::borrowed(2, 2, buf);
  EXPECT_TRUE(t.borrowed_storage());
  EXPECT_EQ(t.data(), buf);

  Tensor copy = t;  // deep copy into owned storage
  EXPECT_FALSE(copy.borrowed_storage());
  copy.at(0, 0) = 9.0f;
  EXPECT_EQ(buf[0], 1.0f);

  Tensor moved = std::move(t);  // move transfers the borrowed pointer
  EXPECT_EQ(moved.data(), buf);
  EXPECT_TRUE(moved.borrowed_storage());
}

// ---------------------------------------------------------------------------
// arena-backed autograd == heap-backed autograd, bitwise
// ---------------------------------------------------------------------------

namespace {

// A miniature SEVulDetNet-flavoured net: dense -> relu -> GRU over rows
// -> mean-pool -> dense logit. Exercises matmul, transposed backward
// GEMMs, slices, concats, reductions, and the GRU's constant() scratch.
struct TinyNet {
  sevuldet::nn::ParamStore store;
  std::unique_ptr<sevuldet::nn::Dense> in_proj;
  std::unique_ptr<sevuldet::nn::GruCell> gru;
  std::unique_ptr<sevuldet::nn::Dense> out_proj;

  explicit TinyNet(unsigned seed) {
    Rng rng(seed);
    in_proj = std::make_unique<sevuldet::nn::Dense>(store, "in", 6, 8, rng);
    gru = std::make_unique<sevuldet::nn::GruCell>(store, "gru", 8, 8, rng);
    out_proj = std::make_unique<sevuldet::nn::Dense>(store, "out", 8, 1, rng);
  }

  NodePtr forward(Tensor input) {
    NodePtr x = sevuldet::nn::relu(
        in_proj->forward(sevuldet::nn::constant(std::move(input))));
    const int t = x->value.rows();
    NodePtr h = gru->initial();
    for (int i = 0; i < t; ++i) {
      h = gru->step(sevuldet::nn::slice_rows(x, i, i + 1), h);
    }
    return out_proj->forward(h);
  }
};

// Runs the same deterministic training schedule (variable-length inputs,
// Adam, grad clipping) and returns the final parameter tensors.
std::vector<Tensor> run_training(bool use_arena, float* loss_bits_out) {
  TinyNet net(1234);
  sevuldet::nn::Adam opt(net.store, 0.01f);
  Rng data_rng(99);
  Graph graph;
  float last_loss = 0.0f;
  for (int step = 0; step < 12; ++step) {
    const int t = 2 + (step % 5);  // variable sequence length
    Tensor input = Tensor::randn(t, 6, data_rng);
    const float target = static_cast<float>(step % 2);

    std::unique_ptr<GraphScope> scope;
    if (use_arena) scope = std::make_unique<GraphScope>(graph);
    NodePtr loss =
        sevuldet::nn::bce_with_logits(net.forward(std::move(input)), target);
    last_loss = loss->value.at(0, 0);
    opt.zero_grad();
    sevuldet::nn::backward(loss);
    opt.clip_grad_norm(5.0f);
    opt.step();
  }
  if (loss_bits_out != nullptr) *loss_bits_out = last_loss;
  std::vector<Tensor> params;
  for (const auto& [name, node] : net.store.all()) {
    params.push_back(node->value);  // deep copy
  }
  return params;
}

}  // namespace

TEST(GraphTest, ArenaTrainingBitwiseIdenticalToHeap) {
  float heap_loss = 0.0f, arena_loss = 0.0f;
  const auto heap_params = run_training(/*use_arena=*/false, &heap_loss);
  const auto arena_params = run_training(/*use_arena=*/true, &arena_loss);
  EXPECT_EQ(std::memcmp(&heap_loss, &arena_loss, sizeof(float)), 0);
  ASSERT_EQ(heap_params.size(), arena_params.size());
  for (std::size_t i = 0; i < heap_params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(heap_params[i], arena_params[i]))
        << "param " << i << " diverged between heap and arena autograd";
  }
}

TEST(GraphTest, SteadyStateReusesNodesAndArena) {
  TinyNet net(77);
  sevuldet::nn::Adam opt(net.store, 0.01f);
  Rng data_rng(5);
  Graph graph;

  auto one_step = [&](int t) {
    GraphScope scope(graph);
    NodePtr loss =
        sevuldet::nn::bce_with_logits(net.forward(Tensor::randn(t, 6, data_rng)),
                                      1.0f);
    opt.zero_grad();
    sevuldet::nn::backward(loss);
    opt.step();
  };

  // Warmup on the largest shape, then capacities must never move again,
  // even for smaller and repeated largest shapes.
  one_step(9);
  one_step(9);
  const std::size_t nodes = graph.node_capacity();
  const std::size_t chunks = graph.arena().chunk_count();
  const std::size_t capacity = graph.arena().capacity();
  const std::size_t high_water = graph.arena().high_water();
  ASSERT_GT(nodes, 0u);
  ASSERT_GT(capacity, 0u);
  for (int i = 0; i < 10; ++i) one_step(2 + (i % 8));
  EXPECT_EQ(graph.node_capacity(), nodes);
  EXPECT_EQ(graph.arena().chunk_count(), chunks);
  EXPECT_EQ(graph.arena().capacity(), capacity);
  EXPECT_EQ(graph.arena().high_water(), high_water);
}

TEST(GraphTest, ScopeRestoresPreviousMode) {
  EXPECT_EQ(Graph::current(), nullptr);
  Graph g1;
  {
    GraphScope s1(g1);
    EXPECT_EQ(Graph::current(), &g1);
  }
  EXPECT_EQ(Graph::current(), nullptr);
  // Heap-mode nodes built with no scope active stay valid after a
  // scope on another graph opens and closes.
  auto keep = sevuldet::nn::constant(Tensor::scalar(3.0f));
  {
    GraphScope s2(g1);
    auto transient = sevuldet::nn::constant(Tensor::scalar(4.0f));
    EXPECT_EQ(transient->home, &g1);
  }
  EXPECT_EQ(keep->home, nullptr);
  EXPECT_EQ(keep->value.at(0, 0), 3.0f);
}
