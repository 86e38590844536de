// The length-bucketed batched inference engine's load-bearing contract:
// SeVulDetNet::predict_batch is BITWISE identical to the
// per-gadget predict_captured loop — across bucket boundaries, odd
// batch sizes, every attention ablation, multiclass heads, and the
// explain capture (attention read-outs travel with the scores). Models
// without a native batched engine fall back to the base-class loop,
// which must be byte-identical to repeated predict(). Daemon-level
// byte-identity (client bytes vs in-process detect) is pinned in
// serve_test.cpp — the daemon scores through this same engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "sevuldet/models/birnn_net.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/util/metrics.hpp"

namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;

namespace {

/// Deterministic token sequences with deliberate length collisions:
/// lengths cycle through a template set (multi-gadget buckets) with
/// every fourth gadget on a one-off length (single-segment buckets),
/// including lengths below the conv kernel (padding path).
std::vector<std::vector<int>> make_gadgets(int count, int vocab) {
  constexpr int kTemplateLens[] = {2, 7, 12, 20, 33, 50};
  std::vector<std::vector<int>> gadgets;
  gadgets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int len =
        i % 4 == 3 ? 1 + (i * 17) % 61 : kTemplateLens[(i / 4) % 6];
    std::vector<int> ids(static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) {
      ids[static_cast<std::size_t>(j)] = 1 + (i * 29 + j * 7) % (vocab - 2);
    }
    gadgets.push_back(std::move(ids));
  }
  return gadgets;
}

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Per-gadget reference: the exact loop the pipeline ran before the
/// batched engine existed (arena-scoped predict_captured per gadget).
std::vector<sm::Prediction> reference_predictions(
    sm::SeVulDetNet& net, const std::vector<std::vector<int>>& gadgets,
    bool capture_spatial = false) {
  std::vector<sm::Prediction> out;
  out.reserve(gadgets.size());
  nn::Graph graph;
  for (const auto& ids : gadgets) {
    nn::GraphScope scope(graph);
    out.push_back(net.predict_captured(ids, capture_spatial));
  }
  return out;
}

void expect_batched_bitwise(sm::SeVulDetNet& net,
                            const std::vector<std::vector<int>>& gadgets,
                            int batch, bool capture_spatial = false) {
  std::vector<sm::BatchItem> items;
  items.reserve(gadgets.size());
  for (const auto& ids : gadgets) items.push_back({&ids, capture_spatial});
  std::vector<sm::Prediction> batched(gadgets.size());
  for (std::size_t off = 0; off < items.size();
       off += static_cast<std::size_t>(batch)) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(batch), items.size() - off);
    net.predict_batch(items.data() + off, n, batched.data() + off);
  }
  const auto expected = reference_predictions(net, gadgets, capture_spatial);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(batched[i].probability, expected[i].probability))
        << "gadget " << i << " batch " << batch << ": " << batched[i].probability
        << " vs " << expected[i].probability;
    EXPECT_TRUE(bits_equal(batched[i].token_weights, expected[i].token_weights))
        << "token_weights diverge at gadget " << i;
    EXPECT_TRUE(
        bits_equal(batched[i].spatial_weights, expected[i].spatial_weights))
        << "spatial_weights diverge at gadget " << i;
  }
}

sm::ModelConfig small_config() {
  sm::ModelConfig config;
  config.vocab_size = 120;
  config.embed_dim = 12;
  config.conv_channels = 8;
  config.attn_dim = 10;
  config.dense1 = 24;
  config.dense2 = 12;
  return config;
}

/// The context vector u_w starts at zero, which makes every token's
/// score 0 and alpha uniform; give it (and the bias) nonzero values so
/// a score gathered for the wrong id shows in the outputs.
void make_attention_selective(sm::SeVulDetNet& net) {
  for (const auto& [name, node] : net.params().all()) {
    if (name != "token_attn.u" && name != "token_attn.b") continue;
    float* w = node->value.data();
    for (std::size_t i = 0; i < node->value.size(); ++i) {
      w[i] = 0.4f * std::sin(1.7f * static_cast<float>(i) + 0.3f);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// batched == per-gadget, bitwise (on selective attention weights, so a
// token score gathered for the wrong id changes the outputs)
// ---------------------------------------------------------------------------

TEST(BatchTest, BatchedMatchesPerGadgetBitwise) {
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto gadgets = make_gadgets(37, net.config().vocab_size);
  // Odd batch sizes straddle bucket boundaries: a bucket of same-length
  // gadgets split across two predict_batch calls must score identically.
  for (const int batch : {1, 2, 3, 5, 17, 37}) {
    expect_batched_bitwise(net, gadgets, batch);
  }
}

TEST(BatchTest, AblationsMatchPerGadgetBitwise) {
  // The RQ2 ablations exercise every engine branch: no token attention
  // (no alpha stage), no CBAM (conv1 -> conv2 direct), parallel CBAM
  // order, and the bare CNN. make_attention_selective is a no-op when
  // token attention is off.
  for (const bool token_attention : {true, false}) {
    for (const bool multilayer : {true, false}) {
      for (const bool sequential : {true, false}) {
        sm::ModelConfig config = small_config();
        config.token_attention = token_attention;
        config.multilayer_attention = multilayer;
        config.cbam_sequential = sequential;
        sm::SeVulDetNet net(config);
        make_attention_selective(net);
        const auto gadgets = make_gadgets(13, config.vocab_size);
        expect_batched_bitwise(net, gadgets, 5);
      }
    }
  }
}

TEST(BatchTest, MulticlassMatchesPerGadgetBitwise) {
  sm::ModelConfig config = small_config();
  config.num_classes = 4;
  sm::SeVulDetNet net(config);
  make_attention_selective(net);
  const auto gadgets = make_gadgets(11, config.vocab_size);
  expect_batched_bitwise(net, gadgets, 4);
}

TEST(BatchTest, ExplainCaptureIdenticalUnderBatching) {
  // capture_spatial is the `explain` path: the CBAM spatial map must
  // travel with each prediction and match the per-gadget read-out.
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto gadgets = make_gadgets(9, net.config().vocab_size);
  expect_batched_bitwise(net, gadgets, 4, /*capture_spatial=*/true);
  // Mixed capture flags within one batch: only flagged items pay for
  // the copy, the rest stay empty.
  std::vector<sm::BatchItem> items;
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    items.push_back({&gadgets[i], i % 2 == 0});
  }
  const auto batched = net.predict_batch(items);
  const auto expected = reference_predictions(net, gadgets, true);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(
          bits_equal(batched[i].spatial_weights, expected[i].spatial_weights));
      EXPECT_FALSE(batched[i].spatial_weights.empty());
    } else {
      EXPECT_TRUE(batched[i].spatial_weights.empty());
    }
  }
}

TEST(BatchTest, RepeatedCallsReuseScratchAndStayIdentical) {
  // Steady-state reuse: the engine recycles its scratch across calls;
  // a second pass over the same gadgets must reproduce the first bit
  // for bit (stale scratch contents must never leak into results).
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_gadgets(21, net.config().vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto first = net.predict_batch(items);
  const auto second = net.predict_batch(items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(first[i].probability, second[i].probability));
    EXPECT_TRUE(bits_equal(first[i].token_weights, second[i].token_weights));
  }
  EXPECT_GT(net.scratch_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// per-call token-attention dedup (scores computed once per distinct id)
// ---------------------------------------------------------------------------

namespace {

/// Gadgets drawn from a tiny id pool, so every id recurs across many
/// length buckets; lengths 1-2 fall below the conv kernel (pad id 0).
std::vector<std::vector<int>> make_repetitive_gadgets(int count) {
  constexpr int kPool[] = {3, 9, 4, 9, 17, 3};
  std::vector<std::vector<int>> gadgets;
  for (int i = 0; i < count; ++i) {
    const int len = 1 + (i * 7) % 29;
    std::vector<int> ids(static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) {
      ids[static_cast<std::size_t>(j)] = kPool[(i + j) % 6];
    }
    gadgets.push_back(std::move(ids));
  }
  return gadgets;
}

}  // namespace

TEST(BatchTest, DedupRepeatedIdsAcrossBucketsMatchesPerGadget) {
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto gadgets = make_repetitive_gadgets(23);
  expect_batched_bitwise(net, gadgets, 23);
  expect_batched_bitwise(net, gadgets, 4);
}

TEST(BatchTest, DedupScoresPadIdForGadgetsShorterThanKernel) {
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  ASSERT_EQ(net.config().conv_kernel, 3);
  // No gadget contains id 0: it enters the call only as padding.
  const std::vector<std::vector<int>> gadgets = {{5}, {6, 7}, {5, 6}, {8}};
  expect_batched_bitwise(net, gadgets, 4);
  // A batch mixing padded and unpadded gadgets sharing ids.
  const std::vector<std::vector<int>> mixed = {{5}, {5, 6, 7, 8}, {7, 7}};
  expect_batched_bitwise(net, mixed, 3);
}

TEST(BatchTest, DedupExplainCaptureStaysBitwise) {
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto gadgets = make_repetitive_gadgets(12);
  expect_batched_bitwise(net, gadgets, 12, /*capture_spatial=*/true);
}

TEST(BatchTest, OutOfRangeIdThrowsAndTheModelStillScores) {
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto gadgets = make_repetitive_gadgets(9);
  const int vocab = net.config().vocab_size;
  for (const int bad : {vocab, -1}) {
    std::vector<std::vector<int>> poisoned = gadgets;
    poisoned[5].push_back(bad);
    std::vector<sm::BatchItem> items;
    for (const auto& ids : poisoned) items.push_back({&ids, false});
    std::vector<sm::Prediction> out(items.size());
    EXPECT_THROW(net.predict_batch(items.data(), items.size(), out.data()),
                 std::out_of_range)
        << "id " << bad;
    expect_batched_bitwise(net, gadgets, 9);
  }
}

TEST(BatchTest, InPlaceWeightEditsReachTheNextCall) {
  // Training updates parameters in place between scoring calls; no
  // attention score may survive from one predict_batch call to the next.
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_repetitive_gadgets(15);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto before = net.predict_batch(items);
  for (const auto& [name, node] : net.params().all()) {
    if (name != "embedding" && name.rfind("token_attn.", 0) != 0) continue;
    float* w = node->value.data();
    for (std::size_t i = 0; i < node->value.size(); ++i) {
      w[i] += 0.05f * static_cast<float>(static_cast<int>(i % 7) - 3);
    }
  }
  const auto after = net.predict_batch(items);
  const auto expected = reference_predictions(net, gadgets);
  bool changed = false;
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(after[i].probability, expected[i].probability))
        << "gadget " << i;
    EXPECT_TRUE(bits_equal(after[i].token_weights, expected[i].token_weights))
        << "gadget " << i;
    changed = changed || !bits_equal(after[i].token_weights,
                                     before[i].token_weights);
  }
  EXPECT_TRUE(changed) << "the edit must move the attention weights";
}

TEST(BatchTest, DedupCountersReportTokenAndScoredRows) {
  namespace metrics = sevuldet::util::metrics;
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_repetitive_gadgets(10);
  std::vector<sm::BatchItem> items;
  long long token_rows = 0;
  std::set<int> distinct = {0};
  for (const auto& ids : gadgets) {
    items.push_back({&ids, false});
    token_rows += std::max<long long>(static_cast<long long>(ids.size()),
                                      net.config().conv_kernel);
    distinct.insert(ids.begin(), ids.end());
  }
  metrics::reset();
  metrics::set_enabled(true);
  net.predict_batch(items);
  const auto snap = metrics::snapshot();
  metrics::set_enabled(false);
  metrics::reset();
  EXPECT_EQ(snap.counters.at("nn.attn.token_rows"), token_rows);
  EXPECT_EQ(snap.counters.at("nn.attn.scored_rows"),
            static_cast<long long>(distinct.size()));
}

// ---------------------------------------------------------------------------
// base-class fallback (models without a native batched engine)
// ---------------------------------------------------------------------------

TEST(BatchTest, BiRnnFallbackMatchesRepeatedPredict) {
  sm::ModelConfig config = small_config();
  config.fixed_length = 20;
  const auto net = sm::make_bgru(config);
  const auto gadgets = make_gadgets(15, config.vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto batched = net->predict_batch(items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(batched[i].probability, net->predict(gadgets[i])))
        << "BiRnn fallback diverges at gadget " << i;
    EXPECT_TRUE(batched[i].token_weights.empty());
  }
}

// ---------------------------------------------------------------------------
// clones (the serve daemon scores on one per request worker)
// ---------------------------------------------------------------------------

TEST(BatchTest, ClonesScoreIdentically) {
  // A clone copies every parameter, so it must produce the parent's
  // bytes — scores and attention read-outs alike.
  sm::SeVulDetNet net(small_config());
  make_attention_selective(net);
  const auto clone = net.clone_net();
  const auto gadgets = make_gadgets(7, net.config().vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto a = net.predict_batch(items);
  const auto b = clone->predict_batch(items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i].probability, b[i].probability));
    EXPECT_TRUE(bits_equal(a[i].token_weights, b[i].token_weights));
  }
}
