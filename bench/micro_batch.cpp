// Batched-inference microbenchmark: the length-bucketed predict_batch
// engine vs the per-gadget autograd forward, across batch sizes.
// Records BENCH_batch.json in the metrics-registry
// schema; absolute scans/s gauges are informational (suffix
// _scans_per_s never gates), the committed baseline's "speedups"
// section gates the machine-independent ratio instead:
//
//   batched_vs_single   batch-32 fp32 / per-gadget fp32   >= 1.02
//
// Why the batched floor is ~1.05x and not the 2x a batching engine
// usually promises: the per-gadget forward is ALREADY a batched
// computation — a gadget's T padded tokens are the GEMM row dimension
// (m = 60..120 for corpus-shaped slices), and measured gemm_blocked
// throughput at the model's conv shapes (k=90/96, n=32) is flat
// (~25 GFLOP/s) from m=13 to m=2400, so stacking gadgets adds no
// per-FLOP speed to the conv GEMMs that dominate (~60% of) runtime.
// Stacking only accelerates the m=1 FC head (measured 14.5 -> 24.7
// GFLOP/s) and removes the autograd graph bookkeeping, worth a
// consistent 6-11% end to end. The gate pins that structural gain
// (batched must never fall behind the loop it replaced); the absolute
// throughput win of this PR comes from the engine's zero-allocation
// steady state and from the serve/eval paths no longer building an
// autograd graph per gadget.
// The bench is also a correctness harness: before timing anything it
// scores every gadget once through predict_batch and once through
// predict_captured and exits 4 unless the results (probability and
// attention read-outs) are bit-identical. The steady-state batched pass
// is alloc-counted (this TU overrides operator new) — after warmup a
// batch must allocate nothing (counter bench.batch32.allocs_per_pass).
//
//   micro_batch [--gadgets N] [--secs S] [--reps R] [--json PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/util/metrics.hpp"

// --- allocation counter ----------------------------------------------------
// Same replacement-operator pattern as micro_kernels (and the same GCC
// false-positive suppression for inlined replacement operators).
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

namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;
namespace su = sevuldet::util;
using Clock = std::chrono::steady_clock;

/// Deterministic gadget set mirroring a corpus-shaped length
/// distribution: most gadgets land on one of a handful of template
/// lengths (SARD-style generated cases share slice shapes, so scans see
/// heavy length collisions -> multi-gadget buckets), with a minority of
/// odd one-off lengths so single-segment buckets and short-sequence
/// padding stay exercised too.
std::vector<std::vector<int>> make_gadgets(int count, int vocab) {
  constexpr int kTemplateLens[] = {12, 20, 28, 40, 52, 60, 80, 120};
  std::vector<std::vector<int>> gadgets;
  gadgets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int len = i % 4 == 3 ? 8 + (i * 37) % 152
                               : kTemplateLens[(i / 4) % 8];
    std::vector<int> ids(static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) {
      ids[static_cast<std::size_t>(j)] = 2 + (i * 31 + j * 13) % (vocab - 10);
    }
    gadgets.push_back(std::move(ids));
  }
  return gadgets;
}

bool bits_equal(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Wall-clock a scoring pass repeated until `secs` elapse; returns
/// gadgets scored per second. The pass runs once as warmup first.
template <typename Pass>
double measure_scans_per_s(Pass&& pass, int gadgets_per_pass, double secs) {
  pass();  // warmup: scratch/arena reach steady state
  const auto start = Clock::now();
  long long scored = 0;
  double elapsed = 0.0;
  do {
    pass();
    scored += gadgets_per_pass;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < secs);
  return static_cast<double>(scored) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_flags(argc, argv);
  int gadget_count = 96;
  double secs = 0.4;
  int reps = bench::env_int("SEVULDET_BENCH_REPS", 3);
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--gadgets") == 0) {
      gadget_count = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--secs") == 0) secs = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  gadget_count = std::max(1, gadget_count);
  reps = std::max(1, reps);
  if (!json_path.empty()) su::metrics::set_enabled(true);
  namespace metrics = su::metrics;

  sm::ModelConfig config;
  config.vocab_size = 500;  // paper-scale net, small vocab for fast init
  sm::SeVulDetNet net(config);
  const auto gadgets = make_gadgets(gadget_count, config.vocab_size);
  std::vector<sm::BatchItem> items;
  items.reserve(gadgets.size());
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  std::vector<sm::Prediction> batched(gadgets.size());
  std::vector<sm::Prediction> single(gadgets.size());

  // --- correctness: batched fp32 must be bit-identical to per-gadget --
  net.predict_batch(items.data(), items.size(), batched.data());
  {
    nn::Graph graph;
    for (std::size_t i = 0; i < gadgets.size(); ++i) {
      nn::GraphScope scope(graph);
      single[i] = net.predict_captured(gadgets[i]);
    }
  }
  bool identical = true;
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    if (!bits_equal(batched[i].probability, single[i].probability) ||
        !bits_equal(batched[i].token_weights, single[i].token_weights)) {
      identical = false;
      std::fprintf(stderr, "gadget %zu: batched %a != single %a\n", i,
                   static_cast<double>(batched[i].probability),
                   static_cast<double>(single[i].probability));
    }
  }
  metrics::label_set("bench.batched_identical", identical ? "true" : "false");
  std::printf("batched fp32 bit-identical to per-gadget: %s\n",
              identical ? "yes" : "NO");
  if (!identical) return 4;

  auto batched_pass = [&](int batch) {
    for (std::size_t off = 0; off < items.size();
         off += static_cast<std::size_t>(batch)) {
      const std::size_t n =
          std::min(static_cast<std::size_t>(batch), items.size() - off);
      net.predict_batch(items.data() + off, n, batched.data() + off);
    }
  };
  auto best_of_reps = [&](auto&& pass) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      best = std::max(best, measure_scans_per_s(pass, gadget_count, secs));
    }
    return best;
  };

  su::Table table({"path", "scans/s"});
  auto record = [&](const std::string& name, double value) {
    table.add_row({name, su::fmt(value, 0)});
    metrics::gauge_set(name, value);
  };

  // Per-gadget reference (the pre-batching serve/eval loop).
  record("bench.single.fp32_scans_per_s", best_of_reps([&] {
           nn::Graph graph;
           for (const auto& ids : gadgets) {
             nn::GraphScope scope(graph);
             net.predict_captured(ids);
           }
         }));

  // Batch-size sweep.
  for (const int batch : {8, 32, gadget_count}) {
    const std::string name = batch == gadget_count
                                 ? "bench.batchfull.fp32_scans_per_s"
                                 : "bench.batch" + std::to_string(batch) +
                                       ".fp32_scans_per_s";
    record(name, best_of_reps([&] { batched_pass(batch); }));
  }

  // Steady-state allocation count: one warm batched pass must not touch
  // the heap (scratch and bucket vectors are recycled).
  {
    batched_pass(32);  // warm
    const long long before = g_allocs.load(std::memory_order_relaxed);
    constexpr int kPasses = 5;
    for (int i = 0; i < kPasses; ++i) batched_pass(32);
    const long long after = g_allocs.load(std::memory_order_relaxed);
    const long long per_pass = (after - before) / kPasses;
    metrics::counter_add("bench.batch32.allocs_per_pass", per_pass);
    table.add_row(
        {"bench.batch32.allocs_per_pass", std::to_string(per_pass)});
  }

  metrics::gauge_set("bench.gadgets", gadget_count);
  metrics::gauge_set("bench.secs_per_row", secs);
  std::printf("%s", table.to_string().c_str());
  if (!json_path.empty()) {
    metrics::write_json(json_path);
    std::printf("recorded %s\n", json_path.c_str());
  }
  return 0;
}
