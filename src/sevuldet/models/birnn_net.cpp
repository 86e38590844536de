#include "sevuldet/models/birnn_net.hpp"

#include <stdexcept>

namespace sevuldet::models {

BiRnnNet::BiRnnNet(ModelConfig config, nn::RnnKind kind, std::string name)
    : Detector(std::move(config)),
      name_(std::move(name)),
      rng_(config_.seed ^ 0xB1D0ULL),
      kind_(kind) {
  if (config_.vocab_size <= 0) {
    throw std::invalid_argument("BiRnnNet: vocab_size must be set");
  }
  util::Rng init_rng(config_.seed);
  embedding_ = store_.add(
      "embedding",
      nn::Tensor::uniform(config_.vocab_size, config_.embed_dim, init_rng, 0.1f));
  rnn_ = std::make_unique<nn::BiRnn>(store_, "rnn", kind_, config_.embed_dim,
                                     config_.rnn_hidden, init_rng);
  fc_ = std::make_unique<nn::Dense>(store_, "fc", rnn_->output_dim(), 1, init_rng);
}

std::unique_ptr<Detector> BiRnnNet::clone() const {
  auto copy = std::make_unique<BiRnnNet>(config_, kind_, name_);
  copy_parameters(store_, copy->store_);
  return copy;
}

std::vector<int> BiRnnNet::fix_length(const std::vector<int>& tokens) const {
  std::vector<int> ids = tokens;
  const std::size_t target = static_cast<std::size_t>(config_.fixed_length);
  if (ids.size() > target) {
    ids.resize(target);  // truncate — may drop vulnerability semantics
  } else {
    ids.resize(target, 0);  // zero-pad — may inject distortion
  }
  return ids;
}

nn::NodePtr BiRnnNet::forward_logit(const std::vector<int>& tokens, bool train) {
  std::vector<int>& ids = ids_scratch_;
  ids.assign(tokens.begin(), tokens.end());
  const std::size_t target = static_cast<std::size_t>(config_.fixed_length);
  if (ids.size() > target) {
    ids.resize(target);
  } else {
    ids.resize(target, 0);
  }
  nn::NodePtr x = nn::embedding(embedding_, ids);
  x = nn::dropout(x, config_.dropout, rng_, train);
  nn::NodePtr h = rnn_->forward(x);
  return fc_->forward(h);
}

std::unique_ptr<BiRnnNet> make_blstm(ModelConfig config) {
  return std::make_unique<BiRnnNet>(std::move(config), nn::RnnKind::Lstm, "BLSTM");
}

std::unique_ptr<BiRnnNet> make_bgru(ModelConfig config) {
  return std::make_unique<BiRnnNet>(std::move(config), nn::RnnKind::Gru, "BGRU");
}

std::unique_ptr<BiRnnNet> make_vuldeepecker(ModelConfig config) {
  // Table IV: VulDeePecker uses dimension 50, lr 0.001, dropout 0.5.
  config.embed_dim = 50;
  config.dropout = 0.5f;
  return std::make_unique<BiRnnNet>(std::move(config), nn::RnnKind::Lstm,
                                    "VulDeePecker");
}

std::unique_ptr<BiRnnNet> make_sysevr(ModelConfig config) {
  // Table IV: SySeVR uses dimension 30, lr 0.002, dropout 0.2.
  config.embed_dim = 30;
  config.dropout = 0.2f;
  return std::make_unique<BiRnnNet>(std::move(config), nn::RnnKind::Gru, "SySeVR");
}

}  // namespace sevuldet::models
