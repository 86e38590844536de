// The paper's detection network (Fig. 2, Steps IV-V): word2vec-initialized
// embedding -> token attention (eqs. 1-4) -> Conv1d -> CBAM channel +
// spatial attention (eqs. 5-8) -> Conv1d -> spatial pyramid pooling
// ({4,2,1} bins) -> dense 256 -> 64 -> 1 (sigmoid at threshold 0.8).
// The token-attention and CBAM stages can be disabled to realize the
// RQ2 ablations (CNN / CNN-TokenATT / CNN-MultiATT).
#pragma once

#include <cstdint>
#include <memory>

#include "sevuldet/models/model.hpp"

namespace sevuldet::models {

class SeVulDetNet : public Detector {
 public:
  explicit SeVulDetNet(ModelConfig config);

  nn::NodePtr forward_logit(const std::vector<int>& tokens, bool train) override;
  const std::string& name() const override { return name_; }
  nn::ParamStore& params() override { return store_; }

  /// α weights of the last forward pass (one per input token) — the
  /// Fig. 6 attention-visualization hook. Empty if token attention is
  /// disabled.
  const std::vector<float>& last_token_weights() const override;

  /// CBAM spatial map Ms of the last forward pass (one weight per conv
  /// row; rows align with the padded token sequence). Empty if
  /// multilayer attention is disabled.
  const std::vector<float>& last_spatial_weights() const override;

  /// Length-bucketed batched inference: items are grouped by padded
  /// token count and each group runs the whole trunk as large stacked
  /// GEMMs (embedding gather, token-attention MLP, conv1/conv2 im2row
  /// products, CBAM MLPs, FC head), with the per-gadget stages
  /// (softmax, reductions, SPP) applied per row segment. The output is
  /// BITWISE-identical to calling predict_captured() per item — stacking
  /// same-length gadgets changes neither any GEMM row's accumulation
  /// chain nor any segment-local op (tests/batch_test.cpp pins this). No
  /// autograd graph is built; scratch is reused across calls, so
  /// steady-state batches allocate nothing.
  void predict_batch(const BatchItem* items, std::size_t count,
                     Prediction* out) override;
  using Detector::predict_batch;  // keep the vector convenience overload

  /// Bytes currently held by the batched engine's recycled scratch
  /// buffers (capacity, not size — vectors only grow, so this is the
  /// high-water inference footprint of this instance).
  std::size_t scratch_bytes() const override;

  /// Concrete deep copy (keeps access to last_token_weights()).
  std::unique_ptr<SeVulDetNet> clone_net() const;
  std::unique_ptr<Detector> clone() const override { return clone_net(); }

 private:
  /// Recycled buffers of the batched engine (per model instance; clones
  /// own their own, so per-worker clones batch concurrently).
  struct BatchScratch {
    std::vector<float> x, attn_u, attn_scores, alpha;
    std::vector<float> tok_x, tok_score;  // distinct-token attention block
    std::vector<float> im1, f1, cb, cb2, im2, f2;
    std::vector<float> ch_avg, ch_max, ch_mid, ch_mlp, mc;
    std::vector<float> sp_in, sp_im, ms;
    std::vector<float> pooled, h1, h2, logits;
  };

  /// Parameter tensors the batched engine reads, resolved from store_
  /// once per instance (ParamStore::find hashes a std::string per call —
  /// measurably hot at one-segment bucket granularity). Tensor addresses
  /// are stable for the model's lifetime; training updates values in
  /// place.
  struct ParamCache {
    const nn::Tensor *attn_w = nullptr, *attn_b = nullptr, *attn_u = nullptr;
    const nn::Tensor *conv1_w = nullptr, *conv1_b = nullptr;
    const nn::Tensor *ch_w0 = nullptr, *ch_b0 = nullptr;
    const nn::Tensor *ch_w1 = nullptr, *ch_b1 = nullptr;
    const nn::Tensor *sp_w = nullptr, *sp_b = nullptr;
    const nn::Tensor *conv2_w = nullptr, *conv2_b = nullptr;
    const nn::Tensor *fc1_w = nullptr, *fc1_b = nullptr;
    const nn::Tensor *fc2_w = nullptr, *fc2_b = nullptr;
    const nn::Tensor *fc3_w = nullptr, *fc3_b = nullptr;
    bool ready = false;
  };

  const ParamCache& param_cache();
  /// out[m,n] = act[m,k] x W + bias (+ReLU).
  void dense_head(int m, int k, int n, const float* act, const nn::Tensor& w,
                  const nn::Tensor& b, bool apply_relu, float* out);
  /// Validates every token id, then (with token attention on) scores
  /// eqs. 1-4 once per distinct id of the call into scratch_.tok_score.
  void score_distinct_tokens(const BatchItem* items, std::size_t count);
  void forward_bucket(const BatchItem* const* items, Prediction** out, int segs,
                      int padded_len);

  std::string name_;
  nn::ParamStore store_;
  util::Rng rng_;          // dropout randomness
  nn::NodePtr embedding_;
  std::unique_ptr<nn::TokenAttention> token_attention_;
  std::unique_ptr<nn::Conv1d> conv1_;
  std::unique_ptr<nn::Cbam> cbam_;
  std::unique_ptr<nn::Conv1d> conv2_;
  std::unique_ptr<nn::Dense> fc1_, fc2_, fc3_;
  std::vector<float> empty_weights_;
  std::vector<int> ids_scratch_;  // padded token ids, reused per forward
  ParamCache pcache_;
  BatchScratch scratch_;
  std::vector<std::pair<int, std::size_t>> bucket_order_;  // (padded len, idx)
  std::vector<const BatchItem*> bucket_items_;  // bucket assembly scratch
  std::vector<Prediction*> bucket_out_;
  // Distinct ids of the current predict_batch call: tok_stamp_[id] ==
  // tok_gen_ marks an id as seen, tok_slot_[id] is its row in the scored
  // block. Vocab-sized on first use; the generation stamp means nothing
  // is cleared between calls, and no score outlives its call.
  std::vector<std::uint32_t> tok_stamp_;
  std::vector<int> tok_slot_;
  std::vector<int> tok_ids_;
  std::uint32_t tok_gen_ = 0;
};

}  // namespace sevuldet::models
