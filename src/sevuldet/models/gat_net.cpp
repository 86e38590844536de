#include "sevuldet/models/gat_net.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sevuldet/util/trace.hpp"

namespace sevuldet::models {

GatNet::GatNet(ModelConfig config)
    : Detector(std::move(config)), rng_(config_.seed ^ 0x6A7ULL) {
  if (config_.vocab_size <= 0) {
    throw std::invalid_argument("GatNet: vocab_size must be set");
  }
  if (config_.gat_layers < 1) {
    throw std::invalid_argument("GatNet: gat_layers must be >= 1");
  }
  name_ = "SEVulDet(GAT)";

  util::Rng init_rng(config_.seed);
  embedding_ = store_.add(
      "embedding",
      nn::Tensor::uniform(config_.vocab_size, config_.embed_dim, init_rng, 0.1f));

  const int hidden = config_.gat_hidden;
  layers_.resize(static_cast<std::size_t>(config_.gat_layers));
  for (int l = 0; l < config_.gat_layers; ++l) {
    const std::string prefix = "gat" + std::to_string(l);
    const int in = l == 0 ? config_.embed_dim : hidden;
    GatLayer& layer = layers_[static_cast<std::size_t>(l)];
    layer.w = std::make_unique<nn::Dense>(store_, prefix + "_w", in, hidden,
                                          init_rng);
    layer.a_src =
        store_.add(prefix + "_asrc", nn::xavier_uniform(hidden, 1, init_rng));
    layer.a_dst =
        store_.add(prefix + "_adst", nn::xavier_uniform(hidden, 1, init_rng));
    // One learned bias per edge type, plus one for the self-loops the
    // forward injects (graph/gadget_graph.hpp never stores them).
    layer.type_bias = store_.add(
        prefix + "_type",
        nn::Tensor::uniform(graph::kGadgetEdgeTypes + 1, 1, init_rng, 0.1f));
  }

  node_attention_ = std::make_unique<nn::TokenAttention>(
      store_, "node_attn", hidden, config_.attn_dim, init_rng);
  fc1_ = std::make_unique<nn::Dense>(store_, "fc1", 2 * hidden, config_.dense2,
                                     init_rng);
  fc2_ = std::make_unique<nn::Dense>(store_, "fc2", config_.dense2,
                                     std::max(1, config_.num_classes), init_rng);
}

void GatNet::build_edge_arrays(const graph::GadgetGraph* graph, int nodes) {
  edge_src_.clear();
  edge_dst_.clear();
  edge_type_.clear();
  seg_offsets_.assign(1, 0);
  std::size_t e = 0;
  for (int d = 0; d < nodes; ++d) {
    if (graph != nullptr) {
      // Stored edges are sorted by (to, from, type), so each node's
      // in-neighborhood is one contiguous run.
      while (e < graph->edges.size() &&
             static_cast<int>(graph->edges[e].to) == d) {
        edge_src_.push_back(static_cast<int>(graph->edges[e].from));
        edge_dst_.push_back(d);
        edge_type_.push_back(static_cast<int>(graph->edges[e].type));
        ++e;
      }
    }
    // The self-loop closes every segment: no neighborhood is empty, and
    // edge_dst_ stays ascending (the scatter_sum_rows contract).
    edge_src_.push_back(d);
    edge_dst_.push_back(d);
    edge_type_.push_back(graph::kGadgetEdgeTypes);
    seg_offsets_.push_back(static_cast<int>(edge_src_.size()));
  }
}

nn::NodePtr GatNet::forward_graph(const std::vector<int>& tokens,
                                  const std::vector<int>& node_offsets,
                                  const graph::GadgetGraph* graph, bool train) {
  util::trace::ScopedSpan span("gat.forward");
  const int nodes = static_cast<int>(node_offsets.size()) - 1;
  build_edge_arrays(graph, nodes);

  nn::NodePtr x = nn::embedding(embedding_, tokens);  // [T, E]
  x = nn::dropout(x, config_.dropout, rng_, train);
  nn::NodePtr h = nn::segment_mean_rows(x, node_offsets);  // [N, E]

  for (const GatLayer& layer : layers_) {
    nn::NodePtr hw = layer.w->forward(h);                   // [N, H]
    nn::NodePtr hs = nn::gather_rows(hw, edge_src_);        // [Ed, H]
    nn::NodePtr hd = nn::gather_rows(hw, edge_dst_);        // [Ed, H]
    nn::NodePtr score =
        nn::add(nn::add(nn::matmul(hs, layer.a_src),        // [Ed, 1]
                        nn::matmul(hd, layer.a_dst)),
                nn::embedding(layer.type_bias, edge_type_));
    score = nn::leaky_relu(score, config_.gat_leaky_slope);
    nn::NodePtr alpha = nn::segment_softmax_col(score, seg_offsets_);
    nn::NodePtr msg = nn::mul_col_broadcast(hs, alpha);     // [Ed, H]
    h = nn::relu(nn::scatter_sum_rows(msg, edge_dst_, nodes));
  }

  nn::NodePtr pooled = node_attention_->forward(h);  // [N, H], α captured

  // Expand the node-pool α to one weight per token: every token of a
  // node inherits the node's weight, so the sequence-indexed provenance
  // path (top tokens, line attributions) reads it unchanged.
  const std::vector<float>& node_weights = node_attention_->last_weights();
  last_token_weights_.assign(tokens.size(), 0.0f);
  for (int s = 0; s < nodes; ++s) {
    const int begin = node_offsets[static_cast<std::size_t>(s)];
    const int end = node_offsets[static_cast<std::size_t>(s) + 1];
    for (int t = begin; t < end; ++t) {
      last_token_weights_[static_cast<std::size_t>(t)] =
          node_weights[static_cast<std::size_t>(s)];
    }
  }

  nn::NodePtr readout = nn::concat_cols(nn::reduce_rows_mean(pooled),
                                        nn::reduce_rows_max(pooled));
  nn::NodePtr z = nn::relu(fc1_->forward(readout));
  z = nn::dropout(z, config_.dropout, rng_, train);
  return fc2_->forward(z);  // [1, max(1, num_classes)] logits
}

nn::NodePtr GatNet::forward_logit(const std::vector<int>& tokens, bool train) {
  // No structure available: the whole stream is one node (with its
  // self-loop) — attention degenerates to the dense head over the mean
  // embedding, which keeps legacy token-only callers functional.
  static const std::vector<int> kPad{0};
  const std::vector<int>& ids = tokens.empty() ? kPad : tokens;
  offsets_scratch_.assign(1, 0);
  offsets_scratch_.push_back(static_cast<int>(ids.size()));
  return forward_graph(ids, offsets_scratch_, nullptr, train);
}

nn::NodePtr GatNet::forward_logit_item(const BatchItem& item, bool train) {
  const std::vector<int>& tokens = *item.tokens;
  const graph::GadgetGraph* graph = item.graph;
  // Accept the graph only when it is structurally consistent with the
  // token stream (legacy corpora and ad-hoc callers ship none).
  if (graph == nullptr || graph->empty() || graph->node_offsets.front() != 0 ||
      graph->node_offsets.back() != tokens.size()) {
    return forward_logit(tokens, train);
  }
  offsets_scratch_.assign(graph->node_offsets.begin(),
                          graph->node_offsets.end());
  return forward_graph(tokens, offsets_scratch_, graph, train);
}

void GatNet::predict_batch(const BatchItem* items, std::size_t count,
                           Prediction* out) {
  util::trace::ScopedSpan span("gat.batch");
  // Group by ascending node count so the shared arena's high-water mark
  // grows once instead of thrashing between small and large graphs. The
  // per-item math is untouched (own GraphScope, deterministic eval
  // forward), so results are bitwise-identical to the base loop.
  bucket_order_.clear();
  bucket_order_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const graph::GadgetGraph* g = items[i].graph;
    const int nodes = g != nullptr && !g->empty() ? g->node_count() : 1;
    bucket_order_.emplace_back(nodes, i);
  }
  std::sort(bucket_order_.begin(), bucket_order_.end());
  for (const auto& [nodes, i] : bucket_order_) {
    (void)nodes;
    nn::GraphScope scope(batch_graph_);
    out[i].probability = predict_item(items[i]);
    out[i].token_weights = last_token_weights();
    out[i].spatial_weights.clear();  // no spatial attention on this backend
  }
}

std::unique_ptr<GatNet> GatNet::clone_gat() const {
  auto copy = std::make_unique<GatNet>(config_);
  copy_parameters(store_, copy->store_);
  return copy;
}

}  // namespace sevuldet::models
