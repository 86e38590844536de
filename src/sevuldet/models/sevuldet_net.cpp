#include "sevuldet/models/sevuldet_net.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/util/metrics.hpp"

namespace sevuldet::models {

namespace {
int spp_total_bins(const std::vector<int>& bins) {
  int total = 0;
  for (int b : bins) total += b;
  return total;
}
}  // namespace

SeVulDetNet::SeVulDetNet(ModelConfig config)
    : Detector(std::move(config)), rng_(config_.seed ^ 0xD1CEULL) {
  if (config_.vocab_size <= 0) {
    throw std::invalid_argument("SeVulDetNet: vocab_size must be set");
  }
  if (config_.multilayer_attention && !config_.token_attention) {
    // The paper's CNN-MultiATT includes token attention; keep the
    // ablation lattice consistent: MultiATT implies TokenATT.
    config_.token_attention = true;
  }
  name_ = config_.multilayer_attention ? "SEVulDet(CNN-MultiATT)"
          : config_.token_attention    ? "CNN-TokenATT"
                                       : "CNN";

  util::Rng init_rng(config_.seed);
  embedding_ = store_.add(
      "embedding",
      nn::Tensor::uniform(config_.vocab_size, config_.embed_dim, init_rng, 0.1f));
  if (config_.token_attention) {
    token_attention_ = std::make_unique<nn::TokenAttention>(
        store_, "token_attn", config_.embed_dim, config_.attn_dim, init_rng);
  }
  conv1_ = std::make_unique<nn::Conv1d>(store_, "conv1", config_.embed_dim,
                                        config_.conv_channels, config_.conv_kernel,
                                        config_.conv_kernel / 2, init_rng);
  if (config_.multilayer_attention) {
    cbam_ = std::make_unique<nn::Cbam>(store_, "cbam", config_.conv_channels,
                                       config_.cbam_reduction, init_rng,
                                       config_.cbam_sequential);
  }
  conv2_ = std::make_unique<nn::Conv1d>(store_, "conv2", config_.conv_channels,
                                        config_.conv_channels, config_.conv_kernel,
                                        config_.conv_kernel / 2, init_rng);
  const int spp_out = spp_total_bins(config_.spp_bins) * config_.conv_channels;
  fc1_ = std::make_unique<nn::Dense>(store_, "fc1", spp_out, config_.dense1, init_rng);
  fc2_ = std::make_unique<nn::Dense>(store_, "fc2", config_.dense1, config_.dense2,
                                     init_rng);
  fc3_ = std::make_unique<nn::Dense>(store_, "fc3", config_.dense2,
                                     std::max(1, config_.num_classes), init_rng);
}

nn::NodePtr SeVulDetNet::forward_logit(const std::vector<int>& tokens, bool train) {
  // Flexible length: no truncation, no padding — the SPP layer absorbs
  // any T >= conv kernel; ultra-short inputs are padded up to the kernel.
  std::vector<int>& ids = ids_scratch_;
  ids.assign(tokens.begin(), tokens.end());
  while (static_cast<int>(ids.size()) < config_.conv_kernel) ids.push_back(0);

  nn::NodePtr x = nn::embedding(embedding_, ids);           // [T, E]
  if (token_attention_) x = token_attention_->forward(x);   // Step IV
  x = nn::relu(conv1_->forward(x));                         // [T, C]
  if (cbam_) x = cbam_->forward(x);                         // Step V attention
  x = nn::relu(conv2_->forward(x));
  x = nn::spp_max(x, config_.spp_bins);                     // [1, 7C]
  x = nn::relu(fc1_->forward(x));
  x = nn::dropout(x, config_.dropout, rng_, train);
  x = nn::relu(fc2_->forward(x));
  return fc3_->forward(x);                                  // [1, 1] logit
}

const std::vector<float>& SeVulDetNet::last_token_weights() const {
  return token_attention_ ? token_attention_->last_weights() : empty_weights_;
}

const std::vector<float>& SeVulDetNet::last_spatial_weights() const {
  return cbam_ ? cbam_->last_spatial_weights() : empty_weights_;
}

std::unique_ptr<SeVulDetNet> SeVulDetNet::clone_net() const {
  auto copy = std::make_unique<SeVulDetNet>(config_);
  copy_parameters(store_, copy->store_);
  return copy;
}

// ---------------------------------------------------------------------------
// Batched inference engine.
//
// The batched path must be BITWISE-identical to the per-gadget
// autograd forward, so every stage below replicates the exact
// floating-point chain of the corresponding nn:: op (same kernels, same
// reduction order, same clamp sequence). Stacking S same-length gadgets
// into one [S*T, *] GEMM is safe because every GEMM row's accumulation
// chain is independent of m and of the installed cache tiles (see the
// determinism contract in nn/kernels.hpp).
// ---------------------------------------------------------------------------

namespace nk = nn::kernels;

const SeVulDetNet::ParamCache& SeVulDetNet::param_cache() {
  if (!pcache_.ready) {
    auto find = [this](const char* name) -> const nn::Tensor* {
      return &store_.find(name)->value;
    };
    if (token_attention_) {
      pcache_.attn_w = find("token_attn.w");
      pcache_.attn_b = find("token_attn.b");
      pcache_.attn_u = find("token_attn.u");
    }
    pcache_.conv1_w = find("conv1.w");
    pcache_.conv1_b = find("conv1.b");
    if (cbam_) {
      pcache_.ch_w0 = find("cbam.channel.w0");
      pcache_.ch_b0 = find("cbam.channel.b0");
      pcache_.ch_w1 = find("cbam.channel.w1");
      pcache_.ch_b1 = find("cbam.channel.b1");
      pcache_.sp_w = find("cbam.spatial.conv.w");
      pcache_.sp_b = find("cbam.spatial.conv.b");
    }
    pcache_.conv2_w = find("conv2.w");
    pcache_.conv2_b = find("conv2.b");
    pcache_.fc1_w = find("fc1.w");
    pcache_.fc1_b = find("fc1.b");
    pcache_.fc2_w = find("fc2.w");
    pcache_.fc2_b = find("fc2.b");
    pcache_.fc3_w = find("fc3.w");
    pcache_.fc3_b = find("fc3.b");
    pcache_.ready = true;
  }
  return pcache_;
}

void SeVulDetNet::dense_head(int m, int k, int n, const float* act,
                             const nn::Tensor& w, const nn::Tensor& b,
                             bool apply_relu, float* out) {
  std::fill(out, out + static_cast<std::size_t>(m) * n, 0.0f);
  nk::gemm(m, n, k, act, w.data(), out);
  const float* bias = b.data();
  for (int i = 0; i < m; ++i) {
    float* row = out + static_cast<std::size_t>(i) * n;
    nk::add_inplace(static_cast<std::size_t>(n), bias, row);
    if (apply_relu) {
      for (int j = 0; j < n; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
    }
  }
}

void SeVulDetNet::forward_bucket(const BatchItem* const* items,
                                 Prediction** out, int segs, int padded_len) {
  BatchScratch& s = scratch_;
  const ParamCache& pc = param_cache();
  const int t0 = padded_len;
  const int e = config_.embed_dim;
  const int ch = config_.conv_channels;
  const int kk = config_.conv_kernel;
  const int pad = kk / 2;
  const int t1 = t0 + 2 * pad - kk + 1;  // conv1 output rows per segment
  const int t2 = t1 + 2 * pad - kk + 1;  // conv2 output rows per segment
  if (t1 < 1 || t2 < 1) {
    throw std::invalid_argument("im2row: sequence shorter than kernel");
  }
  const int rows0 = segs * t0;
  const int rows1 = segs * t1;
  const int rows2 = segs * t2;

  // Embedding gather [rows0, e] (same padding rule as forward_logit;
  // ids were range-checked by score_distinct_tokens) and, with token
  // attention on, each row's score gathered from the per-call block.
  s.x.resize(static_cast<std::size_t>(rows0) * e);
  s.attn_scores.resize(static_cast<std::size_t>(rows0));
  const nn::Tensor& table = embedding_->value;
  for (int sg = 0; sg < segs; ++sg) {
    const std::vector<int>& tokens = *items[sg]->tokens;
    const int len = static_cast<int>(tokens.size());
    float* xs = s.x.data() + static_cast<std::size_t>(sg) * t0 * e;
    float* sc = s.attn_scores.data() + static_cast<std::size_t>(sg) * t0;
    for (int i = 0; i < t0; ++i) {
      const int id = i < len ? tokens[static_cast<std::size_t>(i)] : 0;
      nk::copy(static_cast<std::size_t>(e),
               table.data() + static_cast<std::size_t>(id) * e,
               xs + static_cast<std::size_t>(i) * e);
      if (token_attention_) {
        sc[i] = s.tok_score[static_cast<std::size_t>(
            tok_slot_[static_cast<std::size_t>(id)])];
      }
    }
  }

  // Token attention (eqs. 1-4): softmax + alpha capture + alpha*T
  // scaling per segment over the gathered scores.
  if (token_attention_) {
    s.alpha.resize(static_cast<std::size_t>(rows0));
    const float tf = static_cast<float>(t0);
    for (int sg = 0; sg < segs; ++sg) {
      const float* sc = s.attn_scores.data() + static_cast<std::size_t>(sg) * t0;
      float* al = s.alpha.data() + static_cast<std::size_t>(sg) * t0;
      float max_v = sc[0];
      for (int i = 1; i < t0; ++i) max_v = std::max(max_v, sc[i]);
      float sum = 0.0f;
      for (int i = 0; i < t0; ++i) {
        al[i] = std::exp(sc[i] - max_v);
        sum += al[i];
      }
      for (int i = 0; i < t0; ++i) al[i] /= sum;
      out[sg]->token_weights.assign(al, al + t0);  // pre-scale, as the layer does
      float* xs = s.x.data() + static_cast<std::size_t>(sg) * t0 * e;
      for (int i = 0; i < t0; ++i) {
        const float sa = al[i] * tf;
        float* xr = xs + static_cast<std::size_t>(i) * e;
        for (int j = 0; j < e; ++j) xr[j] *= sa;
      }
    }
  } else {
    for (int sg = 0; sg < segs; ++sg) out[sg]->token_weights.clear();
  }

  // conv1 = relu(im2row * W + b).
  const int k1 = kk * e;
  s.im1.assign(static_cast<std::size_t>(rows1) * k1, 0.0f);
  for (int sg = 0; sg < segs; ++sg) {
    const float* xs = s.x.data() + static_cast<std::size_t>(sg) * t0 * e;
    float* os = s.im1.data() + static_cast<std::size_t>(sg) * t1 * k1;
    for (int i = 0; i < t1; ++i) {
      for (int k2 = 0; k2 < kk; ++k2) {
        const int src = i + k2 - pad;
        if (src < 0 || src >= t0) continue;  // zero padding
        nk::copy(static_cast<std::size_t>(e),
                 xs + static_cast<std::size_t>(src) * e,
                 os + static_cast<std::size_t>(i) * k1 +
                     static_cast<std::size_t>(k2) * e);
      }
    }
  }
  s.f1.resize(static_cast<std::size_t>(rows1) * ch);
  dense_head(rows1, k1, ch, s.im1.data(), *pc.conv1_w, *pc.conv1_b,
             /*apply_relu=*/true, s.f1.data());

  // CBAM (eqs. 5-8).
  const float* conv2_src = s.f1.data();
  if (cbam_) {
    // Channel attention: per-segment avg/max rows -> [segs, ch] through
    // the shared MLP as stacked GEMMs.
    const nn::Tensor& w0 = *pc.ch_w0;  // [ch, mid]
    const nn::Tensor& b0 = *pc.ch_b0;
    const nn::Tensor& w1 = *pc.ch_w1;  // [mid, ch]
    const nn::Tensor& b1 = *pc.ch_b1;
    const int mid = w0.cols();
    s.ch_avg.assign(static_cast<std::size_t>(segs) * ch, 0.0f);
    s.ch_max.resize(static_cast<std::size_t>(segs) * ch);
    for (int sg = 0; sg < segs; ++sg) {
      const float* fs = s.f1.data() + static_cast<std::size_t>(sg) * t1 * ch;
      float* avg = s.ch_avg.data() + static_cast<std::size_t>(sg) * ch;
      nk::col_sum_add(t1, ch, fs, avg);
      for (int j = 0; j < ch; ++j) avg[j] /= static_cast<float>(t1);
      float* mx = s.ch_max.data() + static_cast<std::size_t>(sg) * ch;
      nk::copy(static_cast<std::size_t>(ch), fs, mx);
      for (int i = 1; i < t1; ++i) {
        const float* fr = fs + static_cast<std::size_t>(i) * ch;
        for (int j = 0; j < ch; ++j) {
          if (fr[j] > mx[j]) mx[j] = fr[j];
        }
      }
    }
    auto mlp = [&](const std::vector<float>& in, std::vector<float>& out_v) {
      s.ch_mid.assign(static_cast<std::size_t>(segs) * mid, 0.0f);
      nk::gemm(segs, mid, ch, in.data(), w0.data(), s.ch_mid.data());
      for (int i = 0; i < segs; ++i) {
        float* row = s.ch_mid.data() + static_cast<std::size_t>(i) * mid;
        nk::add_inplace(static_cast<std::size_t>(mid), b0.data(), row);
        for (int j = 0; j < mid; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
      }
      out_v.assign(static_cast<std::size_t>(segs) * ch, 0.0f);
      nk::gemm(segs, ch, mid, s.ch_mid.data(), w1.data(), out_v.data());
      for (int i = 0; i < segs; ++i) {
        nk::add_inplace(static_cast<std::size_t>(ch), b1.data(),
                        out_v.data() + static_cast<std::size_t>(i) * ch);
      }
    };
    mlp(s.ch_avg, s.ch_mlp);  // avg branch
    mlp(s.ch_max, s.mc);      // max branch
    for (std::size_t i = 0; i < s.mc.size(); ++i) {
      s.mc[i] = 1.0f / (1.0f + std::exp(-(s.ch_mlp[i] + s.mc[i])));
    }
    // F' = F * Mc (row broadcast per segment).
    s.cb.resize(static_cast<std::size_t>(rows1) * ch);
    for (int sg = 0; sg < segs; ++sg) {
      const float* fs = s.f1.data() + static_cast<std::size_t>(sg) * t1 * ch;
      const float* mcr = s.mc.data() + static_cast<std::size_t>(sg) * ch;
      float* gs = s.cb.data() + static_cast<std::size_t>(sg) * t1 * ch;
      for (int i = 0; i < t1; ++i) {
        for (int j = 0; j < ch; ++j) {
          gs[static_cast<std::size_t>(i) * ch + j] =
              fs[static_cast<std::size_t>(i) * ch + j] * mcr[j];
        }
      }
    }

    // Spatial attention input: F' when sequential, F when parallel.
    const float* sp_src = config_.cbam_sequential ? s.cb.data() : s.f1.data();
    s.sp_in.resize(static_cast<std::size_t>(rows1) * 2);
    for (int i = 0; i < rows1; ++i) {
      const float* fr = sp_src + static_cast<std::size_t>(i) * ch;
      float acc = 0.0f;
      for (int j = 0; j < ch; ++j) acc += fr[j];
      // 0.0f + acc mirrors row_sum_add's accumulate-into-zeroed-output.
      s.sp_in[2 * static_cast<std::size_t>(i)] =
          (0.0f + acc) / static_cast<float>(ch);
      float best = fr[0];
      for (int j = 1; j < ch; ++j) {
        if (fr[j] > best) best = fr[j];
      }
      s.sp_in[2 * static_cast<std::size_t>(i) + 1] = best;
    }
    const nn::Tensor& sw = *pc.sp_w;  // [2k, 1]
    const nn::Tensor& sb = *pc.sp_b;  // [1, 1]
    const int ks = sw.rows() / 2;
    const int ps = ks / 2;
    const int ksc = ks * 2;
    if (t1 + 2 * ps - ks + 1 != t1) {
      throw std::invalid_argument("forward_bucket: spatial kernel must be odd");
    }
    s.sp_im.assign(static_cast<std::size_t>(rows1) * ksc, 0.0f);
    for (int sg = 0; sg < segs; ++sg) {
      const float* ss = s.sp_in.data() + static_cast<std::size_t>(sg) * t1 * 2;
      float* os = s.sp_im.data() + static_cast<std::size_t>(sg) * t1 * ksc;
      for (int i = 0; i < t1; ++i) {
        for (int k2 = 0; k2 < ks; ++k2) {
          const int src = i + k2 - ps;
          if (src < 0 || src >= t1) continue;
          nk::copy(2, ss + static_cast<std::size_t>(src) * 2,
                   os + static_cast<std::size_t>(i) * ksc +
                       static_cast<std::size_t>(k2) * 2);
        }
      }
    }
    s.ms.assign(static_cast<std::size_t>(rows1), 0.0f);
    nk::gemm(rows1, 1, ksc, s.sp_im.data(), sw.data(), s.ms.data());
    const float sbias = sb.at(0, 0);
    for (int i = 0; i < rows1; ++i) {
      s.ms[static_cast<std::size_t>(i)] =
          1.0f / (1.0f + std::exp(-(s.ms[static_cast<std::size_t>(i)] + sbias)));
    }
    for (int sg = 0; sg < segs; ++sg) {
      if (items[sg]->capture_spatial) {
        const float* msr = s.ms.data() + static_cast<std::size_t>(sg) * t1;
        out[sg]->spatial_weights.assign(msr, msr + t1);
      } else {
        out[sg]->spatial_weights.clear();
      }
    }
    s.cb2.resize(static_cast<std::size_t>(rows1) * ch);
    if (config_.cbam_sequential) {
      // F'' = F' * Ms (col broadcast).
      for (int i = 0; i < rows1; ++i) {
        const float m = s.ms[static_cast<std::size_t>(i)];
        for (int j = 0; j < ch; ++j) {
          s.cb2[static_cast<std::size_t>(i) * ch + j] =
              s.cb[static_cast<std::size_t>(i) * ch + j] * m;
        }
      }
    } else {
      // 0.5 * (channel branch + spatial branch).
      for (int i = 0; i < rows1; ++i) {
        const float m = s.ms[static_cast<std::size_t>(i)];
        for (int j = 0; j < ch; ++j) {
          const std::size_t idx = static_cast<std::size_t>(i) * ch + j;
          s.cb2[idx] = (s.cb[idx] + s.f1[idx] * m) * 0.5f;
        }
      }
    }
    conv2_src = s.cb2.data();
  } else {
    for (int sg = 0; sg < segs; ++sg) out[sg]->spatial_weights.clear();
  }

  // conv2 = relu(im2row * W + b).
  const int k2c = kk * ch;
  s.im2.assign(static_cast<std::size_t>(rows2) * k2c, 0.0f);
  for (int sg = 0; sg < segs; ++sg) {
    const float* fs = conv2_src + static_cast<std::size_t>(sg) * t1 * ch;
    float* os = s.im2.data() + static_cast<std::size_t>(sg) * t2 * k2c;
    for (int i = 0; i < t2; ++i) {
      for (int k2 = 0; k2 < kk; ++k2) {
        const int src = i + k2 - pad;
        if (src < 0 || src >= t1) continue;
        nk::copy(static_cast<std::size_t>(ch),
                 fs + static_cast<std::size_t>(src) * ch,
                 os + static_cast<std::size_t>(i) * k2c +
                     static_cast<std::size_t>(k2) * ch);
      }
    }
  }
  s.f2.resize(static_cast<std::size_t>(rows2) * ch);
  dense_head(rows2, k2c, ch, s.im2.data(), *pc.conv2_w, *pc.conv2_b,
             /*apply_relu=*/true, s.f2.data());

  // SPP per segment -> pooled [segs, spp_out] (exact spp_max clamps).
  const int spp_out = spp_total_bins(config_.spp_bins) * ch;
  s.pooled.resize(static_cast<std::size_t>(segs) * spp_out);
  for (int sg = 0; sg < segs; ++sg) {
    const float* fs = s.f2.data() + static_cast<std::size_t>(sg) * t2 * ch;
    float* pr = s.pooled.data() + static_cast<std::size_t>(sg) * spp_out;
    int bin_offset = 0;
    for (int nb : config_.spp_bins) {
      for (int b = 0; b < nb; ++b) {
        int start = (b * t2) / nb;
        int end = ((b + 1) * t2 + nb - 1) / nb;  // ceil
        if (end <= start) end = start + 1;
        if (start >= t2) start = t2 - 1;
        if (end > t2) end = t2;
        for (int j = 0; j < ch; ++j) {
          float best = fs[static_cast<std::size_t>(start) * ch + j];
          for (int i = start + 1; i < end; ++i) {
            const float v = fs[static_cast<std::size_t>(i) * ch + j];
            if (v > best) best = v;
          }
          pr[static_cast<std::size_t>(bin_offset + b) * ch + j] = best;
        }
      }
      bin_offset += nb;
    }
  }

  // FC head: fc1/fc2 + ReLU (dropout is identity in eval), then the
  // fc3 logit layer.
  s.h1.resize(static_cast<std::size_t>(segs) * config_.dense1);
  dense_head(segs, spp_out, config_.dense1, s.pooled.data(), *pc.fc1_w,
             *pc.fc1_b, /*apply_relu=*/true, s.h1.data());
  s.h2.resize(static_cast<std::size_t>(segs) * config_.dense2);
  dense_head(segs, config_.dense1, config_.dense2, s.h1.data(), *pc.fc2_w,
             *pc.fc2_b, /*apply_relu=*/true, s.h2.data());
  const int numout = std::max(1, config_.num_classes);
  s.logits.assign(static_cast<std::size_t>(segs) * numout, 0.0f);
  nk::gemm(segs, numout, config_.dense2, s.h2.data(), pc.fc3_w->data(),
           s.logits.data());
  const nn::Tensor& b3 = *pc.fc3_b;
  for (int i = 0; i < segs; ++i) {
    float* row = s.logits.data() + static_cast<std::size_t>(i) * numout;
    nk::add_inplace(static_cast<std::size_t>(numout), b3.data(), row);
    if (config_.num_classes > 1) {
      float max_v = row[0];
      for (int j = 1; j < numout; ++j) max_v = std::max(max_v, row[j]);
      float sum = 0.0f;
      float p0 = 0.0f;
      for (int j = 0; j < numout; ++j) {
        const float v = std::exp(row[j] - max_v);
        if (j == 0) p0 = v;
        sum += v;
      }
      out[i]->probability = 1.0f - p0 / sum;
    } else {
      out[i]->probability = 1.0f / (1.0f + std::exp(-row[0]));
    }
  }
}

void SeVulDetNet::score_distinct_tokens(const BatchItem* items,
                                       std::size_t count) {
  const nn::Tensor& table = embedding_->value;
  const int vocab = table.rows();
  for (std::size_t n = 0; n < count; ++n) {
    for (const int id : *items[n].tokens) {
      if (id < 0 || id >= vocab) {
        throw std::out_of_range("embedding: id out of range");
      }
    }
  }
  if (!token_attention_) return;
  if (tok_stamp_.size() != static_cast<std::size_t>(vocab)) {
    tok_stamp_.assign(static_cast<std::size_t>(vocab), 0);
    tok_slot_.assign(static_cast<std::size_t>(vocab), 0);
    tok_gen_ = 0;
  }
  if (++tok_gen_ == 0) {  // wrapped: every stale stamp could match again
    std::fill(tok_stamp_.begin(), tok_stamp_.end(), 0u);
    tok_gen_ = 1;
  }
  tok_ids_.clear();
  auto visit = [this](int id) {
    const auto slot = static_cast<std::size_t>(id);
    if (tok_stamp_[slot] != tok_gen_) {
      tok_stamp_[slot] = tok_gen_;
      tok_slot_[slot] = static_cast<int>(tok_ids_.size());
      tok_ids_.push_back(id);
    }
  };
  visit(0);  // the pad id of gadgets shorter than the conv kernel
  long long token_rows = 0;
  for (std::size_t n = 0; n < count; ++n) {
    const std::vector<int>& tokens = *items[n].tokens;
    for (const int id : tokens) visit(id);
    token_rows += std::max(static_cast<int>(tokens.size()), config_.conv_kernel);
  }

  // u = tanh(x W + b), score = u . u_w on the stacked distinct rows: each
  // GEMM row's chain is independent of the other rows, so every token
  // gets the bits a per-token-row evaluation would give it.
  BatchScratch& s = scratch_;
  const ParamCache& pc = param_cache();
  const nn::Tensor& ww = *pc.attn_w;  // [e, a]
  const nn::Tensor& bw = *pc.attn_b;  // [1, a]
  const nn::Tensor& uw = *pc.attn_u;  // [a, 1]
  const int e = config_.embed_dim;
  const int a = ww.cols();
  const int rows = static_cast<int>(tok_ids_.size());
  util::metrics::counter_add("nn.attn.token_rows", token_rows);
  util::metrics::counter_add("nn.attn.scored_rows", rows);
  s.tok_x.resize(static_cast<std::size_t>(rows) * e);
  for (int r = 0; r < rows; ++r) {
    nk::copy(static_cast<std::size_t>(e),
             table.data() + static_cast<std::size_t>(
                                tok_ids_[static_cast<std::size_t>(r)]) * e,
             s.tok_x.data() + static_cast<std::size_t>(r) * e);
  }
  s.attn_u.assign(static_cast<std::size_t>(rows) * a, 0.0f);
  nk::gemm(rows, a, e, s.tok_x.data(), ww.data(), s.attn_u.data());
  for (int i = 0; i < rows; ++i) {
    float* row = s.attn_u.data() + static_cast<std::size_t>(i) * a;
    nk::add_inplace(static_cast<std::size_t>(a), bw.data(), row);
    for (int j = 0; j < a; ++j) row[j] = std::tanh(row[j]);
  }
  s.tok_score.assign(static_cast<std::size_t>(rows), 0.0f);
  nk::gemm(rows, 1, a, s.attn_u.data(), uw.data(), s.tok_score.data());
}

void SeVulDetNet::predict_batch(const BatchItem* items, std::size_t count,
                                Prediction* out) {
  if (count == 0) return;
  util::metrics::counter_add("nn.predict_batch.calls");
  util::metrics::counter_add("nn.predict_batch.gadgets",
                             static_cast<long long>(count));
  score_distinct_tokens(items, count);
  // Group by padded length: stable order inside a bucket, ascending
  // length across buckets — deterministic regardless of input order.
  // The original index is the pair's second member, so plain in-place
  // sort on (len, idx) is stable by construction (stable_sort would
  // heap-allocate a temp buffer every call).
  bucket_order_.clear();
  bucket_order_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int len = std::max(static_cast<int>(items[i].tokens->size()),
                             config_.conv_kernel);
    bucket_order_.emplace_back(len, i);
  }
  std::sort(bucket_order_.begin(), bucket_order_.end());
  std::size_t start = 0;
  while (start < bucket_order_.size()) {
    const int len = bucket_order_[start].first;
    std::size_t stop = start;
    while (stop < bucket_order_.size() && bucket_order_[stop].first == len) {
      ++stop;
    }
    bucket_items_.clear();
    bucket_out_.clear();
    for (std::size_t i = start; i < stop; ++i) {
      bucket_items_.push_back(&items[bucket_order_[i].second]);
      bucket_out_.push_back(&out[bucket_order_[i].second]);
    }
    forward_bucket(bucket_items_.data(), bucket_out_.data(),
                   static_cast<int>(bucket_items_.size()), len);
    start = stop;
  }
}

std::size_t SeVulDetNet::scratch_bytes() const {
  const BatchScratch& s = scratch_;
  std::size_t floats = 0;
  for (const std::vector<float>* v :
       {&s.x, &s.attn_u, &s.attn_scores, &s.alpha, &s.tok_x, &s.tok_score,
        &s.im1, &s.f1, &s.cb, &s.cb2, &s.im2, &s.f2, &s.ch_avg, &s.ch_max,
        &s.ch_mid, &s.ch_mlp, &s.mc, &s.sp_in, &s.sp_im, &s.ms, &s.pooled,
        &s.h1, &s.h2, &s.logits}) {
    floats += v->capacity();
  }
  return floats * sizeof(float) + tok_stamp_.capacity() * sizeof(std::uint32_t) +
         (tok_slot_.capacity() + tok_ids_.capacity()) * sizeof(int);
}

}  // namespace sevuldet::models
