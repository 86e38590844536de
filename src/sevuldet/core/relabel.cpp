#include "sevuldet/core/relabel.hpp"

#include <algorithm>
#include <cmath>

#include "sevuldet/dataset/kfold.hpp"

namespace sevuldet::core {

std::vector<SuspectLabel> find_suspect_labels(const dataset::Corpus& corpus,
                                              const DetectorFactory& factory,
                                              const RelabelConfig& config) {
  std::vector<SuspectLabel> suspects;
  auto splits = dataset::k_fold_splits(corpus.samples.size(), config.folds,
                                       config.split_seed);
  for (const auto& split : splits) {
    auto detector = factory(corpus.vocab.size());
    train_detector(*detector, sample_refs(corpus, split.train), config.train);
    // Score the held-out fold the way it was trained: graph-aware items
    // in one predict_batch call (graph backends see each sample's PDG).
    std::vector<std::size_t> scored;
    std::vector<models::BatchItem> items;
    for (std::size_t idx : split.test) {
      const auto& sample = corpus.samples[idx];
      if (sample.ids.empty()) continue;
      scored.push_back(idx);
      items.push_back({&sample.ids, false, &sample.graph});
    }
    std::vector<models::Prediction> predictions(items.size());
    detector->predict_batch(items.data(), items.size(), predictions.data());
    for (std::size_t j = 0; j < scored.size(); ++j) {
      const float probability = predictions[j].probability;
      const int label = corpus.samples[scored[j]].label;
      const float disagreement =
          std::fabs(probability - static_cast<float>(label));
      if (disagreement >= config.confidence) {
        suspects.push_back({scored[j], probability, label});
      }
    }
  }
  std::sort(suspects.begin(), suspects.end(),
            [](const SuspectLabel& a, const SuspectLabel& b) {
              const float da = std::fabs(a.probability - static_cast<float>(a.label));
              const float db = std::fabs(b.probability - static_cast<float>(b.label));
              return da > db;
            });
  return suspects;
}

}  // namespace sevuldet::core
