// Microbenchmarks for the blocked kernel library and the tensor-arena
// train step (google-benchmark). Three question groups:
//   1. GEMM family throughput, blocked vs naive, at the exact shapes the
//      SEVulDetNet hot path produces, and per compiled ISA variant at
//      the CLI model's shapes (GFLOP/s counter);
//   2. end-to-end train-step latency, heap autograd vs arena autograd;
//   3. heap allocations per train step — this TU overrides global
//      operator new/delete with a counter, and the arena steady state
//      must report 0 (the "allocs_per_step" counter).
// Record a machine's results with:
//   ./bench/micro_kernels --benchmark_format=json > bench/BENCH_kernels.json
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_observability.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/util/rng.hpp"

// --- allocation counter ----------------------------------------------------
// Counts every global new/delete in this binary. Relaxed atomics: the
// benchmarks of interest are single-threaded; the counter only needs to
// be exact there.
//
// GCC inlines the replaced operators into call sites and then warns that
// malloc/free are mismatched with new/delete — a false positive for
// replacement operators (they are the matching pair by definition).
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace sevuldet;
namespace kernels = nn::kernels;

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// --- GEMM throughput -------------------------------------------------------
// Shapes: (m, k, n) as matmul([m,k],[k,n]). T=200 stands in for a typical
// gadget length feeding the conv layers (im2row rows x kernel*channels),
// the [1,*] rows are the dense head.
void gemm_args(benchmark::internal::Benchmark* b) {
  b->Args({200, 90, 32});    // conv1 after 3x30 im2row
  b->Args({200, 96, 32});    // conv2 after 3x32 im2row
  b->Args({1, 224, 256});    // fc1 (7 SPP bins x 32 channels -> 256)
  b->Args({1, 256, 64});     // fc2
  b->Args({256, 256, 256});  // square reference point
}

template <void (*Gemm)(int, int, int, const float*, const float*, float*)>
void BM_Gemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  util::Rng rng(42);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    Gemm(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * m * n * k;
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmNaive(benchmark::State& state) { BM_Gemm<kernels::gemm_naive>(state); }
void BM_GemmBlocked(benchmark::State& state) { BM_Gemm<kernels::gemm>(state); }
BENCHMARK(BM_GemmNaive)->Apply(gemm_args);
BENCHMARK(BM_GemmBlocked)->Apply(gemm_args);

// Every compiled ISA variant of the forward GEMM at the CLI model's
// per-bucket shapes (embed 24, 16 conv channels, attention 32, one
// ~180-row length bucket of 8 gadgets), registered from main() so each
// variant the host supports gets a row: BM_GemmIsa/<isa>/<layer>/m/k/n.
struct LayerShape {
  const char* layer;
  int m, k, n;
};
constexpr LayerShape kModelShapes[] = {
    {"attn_u", 120, 24, 32},  {"attn_score", 120, 32, 1},
    {"conv1", 180, 72, 16},   {"spatial", 180, 14, 1},
    {"conv2", 180, 48, 16},   {"cbam_mlp0", 8, 16, 4},
    {"cbam_mlp1", 8, 4, 16},  {"fc1", 8, 112, 256},
    {"fc2", 8, 256, 64},      {"fc3", 8, 64, 1},
};

void register_isa_benchmarks() {
  for (const kernels::GemmVariant& v : kernels::gemm_variants()) {
    for (const LayerShape& shape : kModelShapes) {
      const std::string name =
          std::string("BM_GemmIsa/") + v.isa + "/" + shape.layer;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [fn = v.gemm](benchmark::State& state) {
            const int m = static_cast<int>(state.range(0));
            const int k = static_cast<int>(state.range(1));
            const int n = static_cast<int>(state.range(2));
            util::Rng rng(42);
            const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
            const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
            std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
            for (auto _ : state) {
              fn(m, n, k, a.data(), b.data(), c.data());
              benchmark::DoNotOptimize(c.data());
              benchmark::ClobberMemory();
            }
            state.counters["GFLOP/s"] = benchmark::Counter(
                2.0 * m * n * k * static_cast<double>(state.iterations()) *
                    1e-9,
                benchmark::Counter::kIsRate);
          })
          ->Args({shape.m, shape.k, shape.n});
    }
  }
}

// Backward-pass forms at a representative conv shape: dB = A^T(kxm) * G
// and dA = G * B^T(nxk).
void BM_GemmAtBNaive(benchmark::State& state) {
  BM_Gemm<kernels::gemm_at_b_naive>(state);
}
void BM_GemmAtBBlocked(benchmark::State& state) {
  BM_Gemm<kernels::gemm_at_b>(state);
}
BENCHMARK(BM_GemmAtBNaive)->Args({90, 200, 32});
BENCHMARK(BM_GemmAtBBlocked)->Args({90, 200, 32});

void BM_GemmABtNaive(benchmark::State& state) {
  BM_Gemm<kernels::gemm_a_bt_naive>(state);
}
void BM_GemmABtBlocked(benchmark::State& state) {
  BM_Gemm<kernels::gemm_a_bt>(state);
}
BENCHMARK(BM_GemmABtNaive)->Args({200, 32, 90});
BENCHMARK(BM_GemmABtBlocked)->Args({200, 32, 90});

// --- end-to-end train step -------------------------------------------------

models::ModelConfig bench_config() {
  models::ModelConfig config;
  config.vocab_size = 500;  // paper-scale net, small vocab to keep init fast
  return config;
}

std::vector<int> bench_ids(int t) {
  std::vector<int> ids(static_cast<std::size_t>(t));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 2 + static_cast<int>((i * 13) % 490);
  }
  return ids;
}

// One forward+backward+Adam step on the full SEVulDetNet. `use_arena`
// switches between the seed's per-node heap allocation and the recycled
// Graph/TensorArena storage; results are bitwise identical (kernels_test
// proves it), only the allocator traffic differs.
void train_step_bench(benchmark::State& state, bool use_arena) {
  models::SeVulDetNet net(bench_config());
  nn::Adam opt(net.params(), 1e-3f);
  const auto ids = bench_ids(static_cast<int>(state.range(0)));
  nn::Graph graph;

  auto one_step = [&]() {
    nn::NodePtr loss =
        nn::bce_with_logits(net.forward_logit(ids, /*train=*/true), 1.0f);
    opt.zero_grad();
    nn::backward(loss);
    opt.clip_grad_norm(5.0f);
    opt.step();
    benchmark::DoNotOptimize(loss->value.data());
  };

  // Warm up outside measurement so the arena/pool reach steady state.
  for (int i = 0; i < 3; ++i) {
    if (use_arena) {
      nn::GraphScope scope(graph);
      one_step();
    } else {
      one_step();
    }
  }

  const long long allocs_before = g_allocs.load(std::memory_order_relaxed);
  long long steps = 0;
  for (auto _ : state) {
    if (use_arena) {
      nn::GraphScope scope(graph);
      one_step();
    } else {
      one_step();
    }
    ++steps;
  }
  const long long allocs_after = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_step"] = benchmark::Counter(
      steps == 0 ? 0.0
                 : static_cast<double>(allocs_after - allocs_before) /
                       static_cast<double>(steps));
  state.SetItemsProcessed(steps);
}

void BM_TrainStepHeap(benchmark::State& state) {
  train_step_bench(state, /*use_arena=*/false);
}
void BM_TrainStepArena(benchmark::State& state) {
  train_step_bench(state, /*use_arena=*/true);
}
BENCHMARK(BM_TrainStepHeap)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainStepArena)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// Inference-only variant (what evaluation and `sevuldet detect` run).
void BM_PredictArena(benchmark::State& state) {
  models::SeVulDetNet net(bench_config());
  const auto ids = bench_ids(static_cast<int>(state.range(0)));
  nn::Graph graph;
  for (int i = 0; i < 3; ++i) {
    nn::GraphScope scope(graph);
    benchmark::DoNotOptimize(net.predict(ids));
  }
  const long long allocs_before = g_allocs.load(std::memory_order_relaxed);
  long long steps = 0;
  for (auto _ : state) {
    nn::GraphScope scope(graph);
    benchmark::DoNotOptimize(net.predict(ids));
    ++steps;
  }
  const long long allocs_after = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_step"] = benchmark::Counter(
      steps == 0 ? 0.0
                 : static_cast<double>(allocs_after - allocs_before) /
                       static_cast<double>(steps));
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_PredictArena)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() with observability in front: strip
// --metrics-out/--trace-out (enabling the registries and arranging the
// atexit write) before benchmark::Initialize sees argv.
int main(int argc, char** argv) {
  bench::strip_observability_flags(&argc, argv);
  register_isa_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
