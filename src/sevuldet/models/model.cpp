#include "sevuldet/models/model.hpp"

#include <cmath>
#include <stdexcept>

namespace sevuldet::models {

float Detector::predict(const std::vector<int>& tokens) {
  nn::NodePtr logit = forward_logit(tokens, /*train=*/false);
  if (config_.num_classes > 1) {
    return 1.0f - nn::softmax_row_values(logit->value)[0];
  }
  return 1.0f / (1.0f + std::exp(-logit->value.at(0, 0)));
}

float Detector::predict_item(const BatchItem& item) {
  nn::NodePtr logit = forward_logit_item(item, /*train=*/false);
  if (config_.num_classes > 1) {
    return 1.0f - nn::softmax_row_values(logit->value)[0];
  }
  return 1.0f / (1.0f + std::exp(-logit->value.at(0, 0)));
}

Prediction Detector::predict_captured(const std::vector<int>& tokens,
                                      bool capture_spatial) {
  Prediction out;
  out.probability = predict(tokens);
  out.token_weights = last_token_weights();
  if (capture_spatial) out.spatial_weights = last_spatial_weights();
  return out;
}

Prediction Detector::predict_captured_item(const BatchItem& item) {
  Prediction out;
  out.probability = predict_item(item);
  out.token_weights = last_token_weights();
  if (item.capture_spatial) out.spatial_weights = last_spatial_weights();
  return out;
}

const std::vector<float>& Detector::last_token_weights() const {
  static const std::vector<float> kEmpty;
  return kEmpty;
}

const std::vector<float>& Detector::last_spatial_weights() const {
  static const std::vector<float> kEmpty;
  return kEmpty;
}

std::pair<int, float> Detector::predict_class(const std::vector<int>& tokens) {
  nn::NodePtr logit = forward_logit(tokens, /*train=*/false);
  if (config_.num_classes <= 1) {
    const float p = 1.0f / (1.0f + std::exp(-logit->value.at(0, 0)));
    return {p > config_.threshold ? 1 : 0, p};
  }
  auto probs = nn::softmax_row_values(logit->value);
  int best = 0;
  for (int j = 1; j < config_.num_classes; ++j) {
    if (probs[static_cast<std::size_t>(j)] > probs[static_cast<std::size_t>(best)]) {
      best = j;
    }
  }
  return {best, probs[static_cast<std::size_t>(best)]};
}

void Detector::predict_batch(const BatchItem* items, std::size_t count,
                             Prediction* out) {
  // Loop fallback: byte-identical to calling predict() per item (the
  // batch_test suite pins this for BiRnnNet). Attention read-outs come
  // from last_*_weights(), which is empty for models without an
  // attention head. Each item gets its own graph scope so the autograd
  // arena is recycled per forward, exactly like the serial eval loop.
  nn::Graph graph;
  for (std::size_t i = 0; i < count; ++i) {
    nn::GraphScope scope(graph);
    out[i].probability = predict_item(items[i]);
    out[i].token_weights = last_token_weights();
    out[i].spatial_weights =
        items[i].capture_spatial ? last_spatial_weights() : std::vector<float>{};
  }
}

std::vector<Prediction> Detector::predict_batch(
    const std::vector<BatchItem>& items) {
  std::vector<Prediction> out(items.size());
  predict_batch(items.data(), items.size(), out.data());
  return out;
}

void copy_parameters(const nn::ParamStore& from, nn::ParamStore& to) {
  for (const auto& [name, node] : from.all()) {
    nn::NodePtr target = to.find(name);
    if (target == nullptr) {
      throw std::invalid_argument("copy_parameters: missing parameter " + name);
    }
    if (!target->value.same_shape(node->value)) {
      throw std::invalid_argument("copy_parameters: shape mismatch for " + name);
    }
    target->value = node->value;
  }
}

void load_pretrained_embeddings(nn::ParamStore& store,
                                const std::string& param_name,
                                const nn::Tensor& vectors) {
  nn::NodePtr embed = store.find(param_name);
  if (embed == nullptr) {
    throw std::invalid_argument("no embedding parameter named " + param_name);
  }
  if (embed->value.cols() != vectors.cols()) {
    throw std::invalid_argument("embedding dim mismatch");
  }
  const int rows = std::min(embed->value.rows(), vectors.rows());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < vectors.cols(); ++c) {
      embed->value.at(r, c) = vectors.at(r, c);
    }
  }
}

}  // namespace sevuldet::models
