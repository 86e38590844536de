#include "sevuldet/core/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sevuldet/dataset/gadget_graph.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/nn/serialize.hpp"
#include "sevuldet/normalize/normalize.hpp"
#include "sevuldet/util/binary_io.hpp"
#include "sevuldet/util/log.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/thread_pool.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::core {

SeVulDet::SeVulDet(PipelineConfig config) : config_(std::move(config)) {}

void SeVulDet::build_model() {
  models::ModelConfig model_config = config_.model;
  model_config.vocab_size = vocab_.size();
  model_ = models::make_detector(config_.backend, std::move(model_config));
}

TrainResult SeVulDet::train(const std::vector<dataset::TestCase>& programs) {
  dataset::Corpus corpus = dataset::build_corpus(programs, config_.corpus);
  dataset::encode_corpus(corpus, config_.corpus.min_token_count);
  vocab_ = corpus.vocab;
  return train_on_corpus(corpus, all_sample_refs(corpus));
}

TrainResult SeVulDet::train_on_corpus(const dataset::Corpus& corpus,
                                      const SampleRefs& train_set) {
  vocab_ = corpus.vocab;
  build_model();

  if (config_.pretrain_embeddings) {
    nn::Word2VecConfig w2v_config = config_.word2vec;
    w2v_config.dim = config_.model.embed_dim;
    nn::Word2Vec w2v(vocab_, w2v_config);
    std::vector<std::vector<int>> sentences;
    sentences.reserve(train_set.size());
    for (const auto* s : train_set) sentences.push_back(s->ids);
    w2v.train(sentences);
    models::load_pretrained_embeddings(model_->params(), "embedding",
                                       w2v.embeddings());
  }

  return train_detector(*model_, train_set, config_.train);
}

std::vector<std::pair<std::string, float>> SeVulDet::top_attention_tokens(
    const std::vector<float>& weights, const std::vector<std::string>& tokens,
    int top_k) {
  std::vector<std::pair<std::string, float>> out;
  if (weights.empty()) return out;
  const std::size_t n = std::min(tokens.size(), weights.size());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });
  const float max_w = weights[order[0]] > 0.0f ? weights[order[0]] : 1.0f;
  for (std::size_t i = 0; i < n && static_cast<int>(i) < top_k; ++i) {
    out.emplace_back(tokens[order[i]], weights[order[i]] / max_w);
  }
  return out;
}

std::vector<Finding> SeVulDet::detect(const std::string& source, int top_k) {
  DetectOptions options;
  options.top_k = top_k;
  return detect(source, options);
}

namespace {

/// Trace the top-weighted tokens back to their source lines (Fig. 6
/// provenance). Rank order matches top_attention_tokens (ties broken by
/// position), so the two views of a finding always agree.
std::vector<TokenAttribution> attention_attributions(
    const std::vector<float>& weights, const normalize::NormalizedGadget& norm,
    const slicer::CodeGadget& gadget, int top_k) {
  std::vector<TokenAttribution> out;
  if (weights.empty()) return out;
  const std::size_t n = std::min(norm.tokens.size(), weights.size());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  const std::map<std::string, std::string> originals =
      norm.placeholder_to_original();
  for (std::size_t i = 0; i < n && static_cast<int>(i) < top_k; ++i) {
    const std::size_t idx = order[i];
    TokenAttribution attr;
    attr.token = norm.tokens[idx];
    auto it = originals.find(attr.token);
    attr.original = it != originals.end() ? it->second : attr.token;
    attr.weight = weights[idx];
    const int gadget_line = idx < norm.lines.size() ? norm.lines[idx] : 0;
    if (gadget_line >= 1 &&
        gadget_line <= static_cast<int>(gadget.lines.size())) {
      const slicer::GadgetLine& gl =
          gadget.lines[static_cast<std::size_t>(gadget_line - 1)];
      attr.function = gl.function;
      attr.line = gl.line;
    }
    out.push_back(std::move(attr));
  }
  return out;
}

/// Steps I-III + encoding for one special token; nullopt (with the
/// matching detect.drop.* counter) when the gadget is empty.
std::optional<PreparedGadget> prepare_token(
    const graph::ProgramGraph& program, const slicer::SpecialToken& token,
    const slicer::GadgetOptions& gadget_options,
    const normalize::Vocabulary& vocab) {
  PreparedGadget prepared;
  prepared.token = token;
  prepared.gadget = slicer::generate_gadget(program, token, gadget_options);
  if (prepared.gadget.lines.empty()) {
    util::metrics::counter_add("detect.drop.empty_gadget");
    return std::nullopt;
  }
  prepared.norm = normalize::normalize_gadget(prepared.gadget);
  if (prepared.norm.tokens.empty()) {
    util::metrics::counter_add("detect.drop.empty_tokens");
    return std::nullopt;
  }
  prepared.ids = vocab.encode(prepared.norm.tokens);
  prepared.graph =
      dataset::build_gadget_graph(program, prepared.gadget, prepared.norm);
  return prepared;
}

}  // namespace

std::vector<PreparedGadget> SeVulDet::prepare(const std::string& source) const {
  if (!trained()) throw std::logic_error("SeVulDet::prepare before train/load");
  return prepare_program(graph::build_program_graph(source));
}

std::vector<PreparedGadget> SeVulDet::prepare_program(
    const graph::ProgramGraph& program) const {
  if (!trained()) throw std::logic_error("SeVulDet::prepare before train/load");
  const std::vector<slicer::SpecialToken> tokens =
      slicer::find_special_tokens(program);
  std::vector<PreparedGadget> prepared;
  prepared.reserve(tokens.size());
  for (const auto& token : tokens) {
    if (auto p = prepare_token(program, token, config_.corpus.gadget, vocab_)) {
      prepared.push_back(std::move(*p));
    }
  }
  return prepared;
}

std::optional<Finding> SeVulDet::finding_from_prediction(
    const PreparedGadget& prepared, const models::Prediction& prediction,
    const DetectOptions& options) const {
  if (prediction.probability <= config_.model.threshold) {
    util::metrics::counter_add("detect.drop.below_threshold");
    return std::nullopt;
  }
  Finding finding;
  finding.function = prepared.token.function;
  finding.line = prepared.token.line;
  finding.category = prepared.token.category;
  finding.token = prepared.token.text;
  finding.probability = prediction.probability;
  finding.top_tokens = top_attention_tokens(prediction.token_weights,
                                            prepared.norm.tokens, options.top_k);
  if (options.explain) {
    util::trace::ScopedSpan explain_span("detect.explain");
    finding.attributions = attention_attributions(
        prediction.token_weights, prepared.norm, prepared.gadget, options.top_k);
    finding.spatial_attention = prediction.spatial_weights;
    util::metrics::counter_add("detect.explained");
  }
  return finding;
}

void SeVulDet::sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.probability > b.probability;
            });
}

std::vector<Finding> SeVulDet::detect(const std::string& source,
                                      const DetectOptions& options) {
  if (!trained()) throw std::logic_error("SeVulDet::detect before train/load");
  util::trace::ScopedSpan span("detect");

  graph::ProgramGraph program = graph::build_program_graph(source);
  const std::vector<slicer::SpecialToken> tokens =
      slicer::find_special_tokens(program);

  // Slice + normalize a chunk of special tokens, then score the chunk in
  // one length-bucketed predict_batch call (bitwise the same per-gadget
  // results as scoring one at a time, but each bucket runs as
  // large stacked GEMMs). Eval-mode forwards are deterministic, so which
  // model instance runs them does not change the result.
  std::vector<std::optional<Finding>> slots(tokens.size());
  auto process_range = [&](models::Detector& model, std::size_t begin,
                           std::size_t end) {
    std::vector<std::optional<PreparedGadget>> prepared(end - begin);
    std::vector<models::BatchItem> items;
    std::vector<std::size_t> origin;  // token index per batch item
    items.reserve(end - begin);
    origin.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      prepared[i - begin] =
          prepare_token(program, tokens[i], config_.corpus.gadget, vocab_);
      if (prepared[i - begin].has_value()) {
        items.push_back({&prepared[i - begin]->ids, options.explain,
                         &prepared[i - begin]->graph});
        origin.push_back(i);
      }
    }
    std::vector<models::Prediction> predictions(items.size());
    model.predict_batch(items.data(), items.size(), predictions.data());
    for (std::size_t j = 0; j < origin.size(); ++j) {
      slots[origin[j]] = finding_from_prediction(
          *prepared[origin[j] - begin], predictions[j], options);
    }
  };

  const int threads = util::resolve_threads(config_.corpus.threads);
  if (threads > 1 && tokens.size() > 1) {
    util::ThreadPool pool(threads);
    std::vector<std::unique_ptr<models::Detector>> clones(
        static_cast<std::size_t>(pool.size()));
    for (auto& clone : clones) clone = model_->clone();
    pool.parallel_chunks(tokens.size(), [&](int worker, std::size_t begin,
                                            std::size_t end) {
      process_range(*clones[static_cast<std::size_t>(worker)], begin, end);
    });
  } else {
    process_range(*model_, 0, tokens.size());
  }

  std::vector<Finding> findings;
  for (auto& slot : slots) {
    if (slot.has_value()) findings.push_back(std::move(*slot));
  }
  util::metrics::counter_add("detect.calls");
  util::metrics::counter_add("detect.findings",
                             static_cast<long long>(findings.size()));
  sort_findings(findings);
  return findings;
}

namespace {

// v2 layout: the text header line (so a v1 reader fails with a clear
// message), then a framed binary payload — magic + format version + size
// + payload + FNV-1a checksum, the same framing as compiled-corpus files.
// v3 prepends the backend name to the payload so load() rebuilds the
// right network; "cnn" models keep writing v2, byte-identical to every
// pre-registry build (pipeline_test pins this).
constexpr std::string_view kModelHeaderV1 = "SEVULDET-MODEL v1\n";
constexpr std::string_view kModelHeaderV2 = "SEVULDET-MODEL v2\n";
constexpr std::string_view kModelHeaderV3 = "SEVULDET-MODEL v3\n";
constexpr std::string_view kModelMagic = "SVDMODL\n";
constexpr std::uint32_t kModelFormatVersion = 2;
constexpr std::uint32_t kModelFormatVersionV3 = 3;

}  // namespace

void SeVulDet::save(const std::string& path) const {
  if (!trained()) throw std::logic_error("SeVulDet::save before train");
  util::trace::ScopedSpan span("model.save");
  util::metrics::counter_add("model.saves");
  util::ByteWriter payload;
  if (config_.backend != models::kDefaultBackend) {
    payload.str(config_.backend);
  }
  payload.str(vocab_.serialize());
  nn::serialize_params_binary(model_->params(), payload);
  std::string bytes;
  if (config_.backend == models::kDefaultBackend) {
    bytes = kModelHeaderV2;
    bytes +=
        util::frame_payload(kModelMagic, kModelFormatVersion, payload.data());
  } else {
    bytes = kModelHeaderV3;
    bytes +=
        util::frame_payload(kModelMagic, kModelFormatVersionV3, payload.data());
  }
  util::write_binary_file(path, bytes);
}

void SeVulDet::save_text_v1(const std::string& path) const {
  if (!trained()) throw std::logic_error("SeVulDet::save before train");
  util::trace::ScopedSpan span("model.save");
  util::metrics::counter_add("model.saves");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  const std::string vocab_blob = vocab_.serialize();
  out << kModelHeaderV1;
  out << "vocab " << vocab_blob.size() << '\n';
  out << vocab_blob;
  out << nn::serialize_params(model_->params());
}

void SeVulDet::load(const std::string& path) {
  util::trace::ScopedSpan span("model.load");
  util::metrics::counter_add("model.loads");
  const std::string bytes = util::read_binary_file(path);
  const bool v3 = bytes.compare(0, kModelHeaderV3.size(), kModelHeaderV3) == 0;
  if (v3 || bytes.compare(0, kModelHeaderV2.size(), kModelHeaderV2) == 0) {
    const std::string payload = util::unframe_payload(
        kModelMagic, v3 ? kModelFormatVersionV3 : kModelFormatVersion,
        std::string_view(bytes).substr(kModelHeaderV2.size()), "model file");
    util::ByteReader in(payload);
    if (v3) {
      const std::string backend = in.str();
      if (!models::valid_backend(backend)) {
        throw std::runtime_error("model file: unknown backend '" + backend + "'");
      }
      config_.backend = backend;
    } else {
      config_.backend = models::kDefaultBackend;  // v2 predates backends
    }
    vocab_ = normalize::Vocabulary::deserialize(in.str());
    build_model();
    nn::deserialize_params_binary(model_->params(), in);
    if (!in.done()) {
      throw std::runtime_error("model file: trailing bytes in payload");
    }
    return;
  }
  if (bytes.compare(0, kModelHeaderV1.size(), kModelHeaderV1) != 0) {
    throw std::runtime_error("bad model file header: " +
                             bytes.substr(0, bytes.find('\n')));
  }

  // Legacy v1 text format, with explicit bounds checks: a truncated file
  // must throw, never yield a silently NUL-padded vocabulary.
  std::istringstream in(bytes.substr(kModelHeaderV1.size()));
  std::string tag;
  std::size_t vocab_size = 0;
  in >> tag >> vocab_size;
  if (tag != "vocab") throw std::runtime_error("bad model file: missing vocab");
  in.ignore(1);  // newline
  std::string vocab_blob(vocab_size, '\0');
  in.read(vocab_blob.data(), static_cast<std::streamsize>(vocab_size));
  if (static_cast<std::size_t>(in.gcount()) != vocab_size) {
    throw std::runtime_error("model file: truncated vocabulary (expected " +
                             std::to_string(vocab_size) + " bytes, got " +
                             std::to_string(in.gcount()) + ")");
  }
  vocab_ = normalize::Vocabulary::deserialize(vocab_blob);
  config_.backend = models::kDefaultBackend;  // v1 predates backends
  build_model();
  std::ostringstream rest;
  rest << in.rdbuf();
  nn::deserialize_params(model_->params(), rest.str());
}

}  // namespace sevuldet::core
