#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "sevuldet/core/relabel.hpp"
#include "sevuldet/dataset/corpus.hpp"
#include "sevuldet/dataset/kfold.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/models/gat_net.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/autograd.hpp"

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace sm = sevuldet::models;

namespace {

sc::DetectorFactory tiny_factory() {
  return [](int vocab_size) -> std::unique_ptr<sm::Detector> {
    sm::ModelConfig config;
    config.vocab_size = vocab_size;
    config.embed_dim = 12;
    config.conv_channels = 8;
    config.attn_dim = 8;
    config.dense1 = 24;
    config.dense2 = 12;
    return std::make_unique<sm::SeVulDetNet>(config);
  };
}

sc::DetectorFactory tiny_gat_factory() {
  return [](int vocab_size) -> std::unique_ptr<sm::Detector> {
    sm::ModelConfig config;
    config.vocab_size = vocab_size;
    config.embed_dim = 12;
    config.gat_hidden = 8;
    config.attn_dim = 8;
    config.dense1 = 16;
    config.dense2 = 8;
    return std::make_unique<sm::GatNet>(config);
  };
}

}  // namespace

TEST(Relabel, FlagsDeliberatelyFlippedLabels) {
  sd::SardConfig gen_config;
  gen_config.pairs_per_category = 10;
  gen_config.long_fraction = 0.0;
  gen_config.ambiguous_fraction = 0.0;  // keep only learnable samples
  auto corpus = sd::build_corpus(sd::generate_sard_like(gen_config));
  sd::encode_corpus(corpus);

  // Flip a handful of clean samples to "vulnerable" — injected label noise.
  std::vector<std::size_t> flipped;
  for (std::size_t i = 0; i < corpus.samples.size() && flipped.size() < 8; i += 97) {
    if (corpus.samples[i].label == 0) {
      corpus.samples[i].label = 1;
      flipped.push_back(i);
    }
  }
  ASSERT_GE(flipped.size(), 5u);

  sc::RelabelConfig config;
  config.folds = 3;
  config.confidence = 0.8f;
  config.train.epochs = 4;
  config.train.lr = 0.003f;
  auto suspects = sc::find_suspect_labels(corpus, tiny_factory(), config);

  // The flipped samples should be heavily represented among the suspects.
  std::size_t caught = 0;
  for (std::size_t idx : flipped) {
    for (const auto& suspect : suspects) {
      if (suspect.sample_index == idx) {
        ++caught;
        EXPECT_EQ(suspect.label, 1);
        EXPECT_LT(suspect.probability, 0.2f);
        break;
      }
    }
  }
  EXPECT_GE(caught, flipped.size() / 2)
      << "caught " << caught << " of " << flipped.size() << " planted flips ("
      << suspects.size() << " suspects total)";
  // Narrowing: the review list must be much smaller than the corpus.
  EXPECT_LT(suspects.size(), corpus.samples.size() / 5);
}

TEST(Relabel, SortedByDisagreement) {
  sd::SardConfig gen_config;
  gen_config.pairs_per_category = 4;
  gen_config.long_fraction = 0.0;
  auto corpus = sd::build_corpus(sd::generate_sard_like(gen_config));
  sd::encode_corpus(corpus);
  sc::RelabelConfig config;
  config.folds = 2;
  config.confidence = 0.5f;
  config.train.epochs = 2;
  auto suspects = sc::find_suspect_labels(corpus, tiny_factory(), config);
  for (std::size_t i = 1; i < suspects.size(); ++i) {
    const float prev = std::fabs(suspects[i - 1].probability -
                                 static_cast<float>(suspects[i - 1].label));
    const float cur = std::fabs(suspects[i].probability -
                                static_cast<float>(suspects[i].label));
    EXPECT_GE(prev, cur);
  }
}

TEST(Relabel, GraphBackendScoresHeldOutFoldWithGraphs) {
  // A graph backend trains on each sample's PDG, so the held-out fold
  // must be scored with it too. confidence 0 flags every scored sample,
  // which exposes each fold's probabilities for comparison against a
  // retrained fold model scored through graph-aware predict_batch.
  sd::SardConfig gen_config;
  gen_config.pairs_per_category = 3;
  gen_config.long_fraction = 0.0;
  auto corpus = sd::build_corpus(sd::generate_sard_like(gen_config));
  sd::encode_corpus(corpus);
  sc::RelabelConfig config;
  config.folds = 2;
  config.confidence = 0.0f;
  config.train.epochs = 1;
  const auto factory = tiny_gat_factory();
  const auto suspects = sc::find_suspect_labels(corpus, factory, config);

  std::map<std::size_t, float> expected;
  int graph_changes_score = 0;
  for (const auto& split : sd::k_fold_splits(corpus.samples.size(),
                                             config.folds, config.split_seed)) {
    auto detector = factory(corpus.vocab.size());
    sc::train_detector(*detector, sc::sample_refs(corpus, split.train),
                       config.train);
    for (std::size_t idx : split.test) {
      const auto& sample = corpus.samples[idx];
      if (sample.ids.empty()) continue;
      const sm::BatchItem item{&sample.ids, false, &sample.graph};
      sm::Prediction prediction;
      detector->predict_batch(&item, 1, &prediction);
      expected[idx] = prediction.probability;
      sevuldet::nn::Graph graph;
      sevuldet::nn::GraphScope scope(graph);
      if (detector->predict(sample.ids) != prediction.probability) {
        ++graph_changes_score;
      }
    }
  }
  // Otherwise the comparison below could not tell graph-blind scoring
  // from graph-aware scoring.
  ASSERT_GT(graph_changes_score, 0);
  ASSERT_EQ(suspects.size(), expected.size());
  for (const auto& suspect : suspects) {
    const auto it = expected.find(suspect.sample_index);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(0, std::memcmp(&suspect.probability, &it->second, sizeof(float)))
        << "sample " << suspect.sample_index << ": " << suspect.probability
        << " vs " << it->second;
  }
}
