// Common detector interface. Every model maps a token-id sequence to a
// vulnerability probability; training runs per-sample SGD/Adam on binary
// cross-entropy. The paper classifies with threshold 0.8 ("if this
// number is greater than 0.8, the output is flawed").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sevuldet/graph/gadget_graph.hpp"
#include "sevuldet/nn/layers.hpp"
#include "sevuldet/nn/tensor.hpp"

namespace sevuldet::models {

struct ModelConfig {
  int vocab_size = 0;     // required
  int embed_dim = 30;     // Table IV: dimension 30
  float dropout = 0.2f;   // Table IV
  float threshold = 0.8f; // Section III-C
  /// 1 = binary vulnerable/clean (the paper's main setting). >1 enables
  /// multiclass vulnerability-type output (Fig. 2b "output vulnerability
  /// type"): class 0 is "benign", classes 1..N-1 are CWE types.
  int num_classes = 1;

  // SEVulDet CNN trunk
  int conv_channels = 32;
  int conv_kernel = 3;
  std::vector<int> spp_bins = {4, 2, 1};
  int attn_dim = 32;        // token-attention hidden size
  int cbam_reduction = 4;
  int dense1 = 256;         // paper's dense head 256 -> 64 -> 1
  int dense2 = 64;
  bool token_attention = true;   // ablation: CNN-TokenATT vs CNN
  bool multilayer_attention = true;  // ablation: CNN-MultiATT
  bool cbam_sequential = true;   // ablation: sequential vs parallel CBAM

  // BiRNN baselines
  int rnn_hidden = 30;
  int fixed_length = 50;  // time steps; tokens are truncated/padded to this

  // GAT backbone (the "gat" backend): edge-aware graph attention over
  // the gadget's PDG projection (GadgetGraph).
  int gat_layers = 2;           // message-passing rounds
  int gat_hidden = 32;          // per-node hidden width
  float gat_leaky_slope = 0.2f; // LeakyReLU slope on attention scores

  std::uint64_t seed = 42;
};

/// One eval-mode forward pass with its attention read-outs captured at
/// forward time. The model's last_*_weights() accessors are only valid
/// until the next forward pass on that instance, so batched inference
/// copies them out per item (a pure read-out — scores are identical to
/// calling predict()).
struct Prediction {
  float probability = 0.0f;
  std::vector<float> token_weights;    // α_i per input token (may be empty)
  std::vector<float> spatial_weights;  // CBAM Ms, filled only on request
};

/// One gadget in a predict_batch() call. `tokens` must outlive the call.
/// `graph` is the gadget's PDG projection for graph backends (may stay
/// null — sequence models ignore it, graph models fall back to a
/// single-node graph over the whole token stream).
struct BatchItem {
  const std::vector<int>* tokens = nullptr;
  bool capture_spatial = false;  // fill Prediction::spatial_weights
  const graph::GadgetGraph* graph = nullptr;
};

/// Abstract detector.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Logit for one token-id sequence; `train` enables dropout.
  virtual nn::NodePtr forward_logit(const std::vector<int>& tokens, bool train) = 0;

  /// Logit for one batch item. Sequence models ignore item.graph (the
  /// default delegates to forward_logit on the tokens); graph models
  /// override to consume it. Training and evaluation go through this
  /// seam so every backend sees the full sample.
  virtual nn::NodePtr forward_logit_item(const BatchItem& item, bool train) {
    return forward_logit(*item.tokens, train);
  }

  virtual const std::string& name() const = 0;
  virtual nn::ParamStore& params() = 0;
  const nn::ParamStore& params() const {
    return const_cast<Detector*>(this)->params();
  }

  /// Probability of "vulnerable" (eval mode): sigmoid of the logit for
  /// binary models, 1 - P(benign) for multiclass models.
  float predict(const std::vector<int>& tokens);

  /// Multiclass: (argmax class id, its softmax probability). For binary
  /// models returns ({0,1}, predict()).
  std::pair<int, float> predict_class(const std::vector<int>& tokens);

  /// predict() over a full batch item (graph-aware). For items with no
  /// graph this is bit-identical to predict(*item.tokens).
  float predict_item(const BatchItem& item);

  /// predict() plus a copy of the attention read-outs taken immediately
  /// after the forward pass (last_*_weights() is only valid until the
  /// instance's next forward). `capture_spatial` additionally copies the
  /// spatial map (explain requests only — it is the largest of the
  /// three). The probability is bit-identical to predict(tokens).
  Prediction predict_captured(const std::vector<int>& tokens,
                              bool capture_spatial = false);
  /// Same, through the graph-aware item seam.
  Prediction predict_captured_item(const BatchItem& item);

  /// Attention read-outs of the last eval forward pass, used by
  /// explain/report. The base returns empty vectors (models without an
  /// attention head have nothing to expose); attention backends
  /// override. Only valid until the next forward pass on this instance.
  virtual const std::vector<float>& last_token_weights() const;
  virtual const std::vector<float>& last_spatial_weights() const;

  /// Score `count` gadgets in one call, writing one Prediction per item.
  /// The base implementation is a loop over predict() — byte-identical
  /// to calling predict() per item, so callers never branch on model
  /// family. Models with a native batched engine (SeVulDetNet) override
  /// this with length-bucketed large-GEMM inference; their output is
  /// bitwise-identical to the loop.
  virtual void predict_batch(const BatchItem* items, std::size_t count,
                             Prediction* out);
  /// Convenience overload.
  std::vector<Prediction> predict_batch(const std::vector<BatchItem>& items);

  /// Deep copy with identical parameter values (and a fresh dropout
  /// RNG). A clone shares no mutable state with the original, so clones
  /// can run forward passes concurrently on different threads — the
  /// parallel evaluation/detection paths clone one model per worker.
  virtual std::unique_ptr<Detector> clone() const = 0;

  /// Bytes held by any recycled batched-inference scratch (capacity,
  /// not size). 0 for models without a batched engine.
  virtual std::size_t scratch_bytes() const { return 0; }

  const ModelConfig& config() const { return config_; }

 protected:
  explicit Detector(ModelConfig config) : config_(std::move(config)) {}
  ModelConfig config_;
};

/// Initialize an embedding-matrix parameter from pre-trained word2vec
/// vectors (rows beyond the trained vocabulary stay random).
void load_pretrained_embeddings(nn::ParamStore& store,
                                const std::string& param_name,
                                const nn::Tensor& vectors);

/// Copy every parameter tensor of `from` into the same-named parameter
/// of `to`. Throws if a name is missing or shapes differ (i.e. the
/// stores were built from different configs).
void copy_parameters(const nn::ParamStore& from, nn::ParamStore& to);

}  // namespace sevuldet::models
