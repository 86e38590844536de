// SEVulDet end-to-end pipeline — the library's primary public API.
// Training phase (paper Fig. 2a): generate path-sensitive code gadgets
// from labeled programs (Steps I-II), normalize (Step III), pre-train
// word2vec and embed with token attention (Step IV), train the
// CNN+SPP+CBAM detector (Step V). Detection phase (Fig. 2b): slice an
// unlabeled program, classify each gadget, and report vulnerability
// findings with line numbers and the attention weights that explain them
// (the Fig. 6 visualization).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sevuldet/core/trainer.hpp"
#include "sevuldet/dataset/corpus.hpp"
#include "sevuldet/dataset/testcase.hpp"
#include "sevuldet/models/registry.hpp"
#include "sevuldet/nn/word2vec.hpp"
#include "sevuldet/normalize/normalize.hpp"

namespace sevuldet::core {

struct PipelineConfig {
  dataset::CorpusOptions corpus;     // path-sensitive by default
  models::ModelConfig model;         // vocab_size is filled automatically
  TrainConfig train;
  nn::Word2VecConfig word2vec;
  bool pretrain_embeddings = true;
  /// Detector backend, resolved through models::make_detector ("cnn" is
  /// the paper's CNN trunk, "gat" the graph-attention backbone). The
  /// name is persisted in v3 model files; v1/v2 files are always "cnn".
  std::string backend = models::kDefaultBackend;
};

/// One ranked attention attribution (Fig. 6 provenance): a normalized
/// token of the gadget traced back to its original spelling and source
/// location through the slicer's line records and the normalizer's
/// invertible var/fun placeholder maps.
struct TokenAttribution {
  std::string token;     // normalized spelling, e.g. "var2"
  std::string original;  // original spelling, e.g. "data"
  std::string function;  // enclosing function of the source line
  int line = 0;          // 1-based original source line (0 if unknown)
  float weight = 0.0f;   // raw α_i (softmax over the gadget, sums to ~1)
};

/// One detection-phase result: a gadget classified as vulnerable.
struct Finding {
  std::string function;
  int line = 0;                       // line of the special token
  slicer::TokenCategory category = slicer::TokenCategory::FunctionCall;
  std::string token;                  // e.g. "strncpy"
  float probability = 0.0f;
  /// Top-weighted tokens of this gadget by attention (Fig. 6), pairs of
  /// (token spelling, weight normalized to the max weight).
  std::vector<std::pair<std::string, float>> top_tokens;
  /// Ranked source-line attributions, filled only when
  /// DetectOptions::explain is set. Capture is a pure read-out of the
  /// already-computed attention weights: every other field (and the
  /// model) is byte-identical with or without it.
  std::vector<TokenAttribution> attributions;
  /// CBAM spatial map over the gadget's (padded) token positions,
  /// explain-only; empty when multilayer attention is ablated.
  std::vector<float> spatial_attention;
};

struct DetectOptions {
  int top_k = 10;       // attention tokens / attributions per finding
  bool explain = false; // fill Finding::attributions/spatial_attention
};

/// One sliced + normalized + encoded gadget of a scan, ready for batched
/// inference. The serve daemon prepares gadgets on its request workers,
/// scores them with one predict_batch() on the worker's model clone, and
/// assembles Findings from the returned predictions with
/// finding_from_prediction() — the exact helpers detect() itself runs,
/// so a daemon scan is byte-identical to an in-process one.
struct PreparedGadget {
  slicer::SpecialToken token;
  slicer::CodeGadget gadget;
  normalize::NormalizedGadget norm;
  std::vector<int> ids;
  /// PDG projection of the gadget (see graph/gadget_graph.hpp) for graph
  /// backends; sequence backends ignore it.
  graph::GadgetGraph graph;
};

class SeVulDet {
 public:
  explicit SeVulDet(PipelineConfig config);

  /// Full training phase on labeled programs.
  TrainResult train(const std::vector<dataset::TestCase>& programs);

  /// Train directly on a prepared corpus (benches reuse corpora across
  /// models). The corpus must already be encoded.
  TrainResult train_on_corpus(const dataset::Corpus& corpus,
                              const SampleRefs& train_set);

  /// Detection phase on raw source. `top_k` attention tokens per
  /// finding. Honors `config().corpus.threads`: gadgets are sliced,
  /// normalized and classified in parallel chunks on per-worker model
  /// clones, and the findings are identical to a serial scan.
  std::vector<Finding> detect(const std::string& source, int top_k = 10);

  /// Detection with attention provenance: with `options.explain` each
  /// Finding additionally carries ranked (function, line, token, weight)
  /// attributions and the CBAM spatial map. Inference is unchanged —
  /// probabilities, top_tokens, and the model are byte-identical to a
  /// plain detect().
  std::vector<Finding> detect(const std::string& source,
                              const DetectOptions& options);

  /// Probability for a single pre-encoded gadget (used by evaluation).
  float predict(const std::vector<int>& ids) { return model_->predict(ids); }

  /// Detection-phase preprocessing only (Steps I-III + encoding): slice
  /// every special token of `source`, normalize, and encode against the
  /// loaded vocabulary. Gadgets that detect() would drop (empty gadget /
  /// empty token stream) are dropped here too, with the same
  /// `detect.drop.*` counters. Serial; the serve daemon gets its
  /// parallelism across requests instead of within one.
  std::vector<PreparedGadget> prepare(const std::string& source) const;

  /// Same as prepare(), but on an already-built program graph. The scan
  /// frontend parses through the error-resilient recovery path and a
  /// lightweight preprocessor before building the graph, so it cannot
  /// use the parse-from-source entry point above.
  std::vector<PreparedGadget> prepare_program(
      const graph::ProgramGraph& program) const;

  /// Second half of detect() for one prepared gadget: threshold check
  /// (with the detect.drop.below_threshold counter), attention top-k,
  /// and — when `options.explain` — line-level attributions and the
  /// CBAM spatial map out of the captured prediction. Returns nullopt
  /// below threshold. Used by detect() and the serve daemon alike.
  std::optional<Finding> finding_from_prediction(
      const PreparedGadget& prepared, const models::Prediction& prediction,
      const DetectOptions& options) const;

  /// detect()'s final ordering: probability-descending. Exposed so the
  /// daemon sorts its per-request findings identically.
  static void sort_findings(std::vector<Finding>& findings);

  models::Detector& model() { return *model_; }
  const normalize::Vocabulary& vocab() const { return vocab_; }
  const PipelineConfig& config() const { return config_; }
  bool trained() const { return model_ != nullptr; }

  /// Persist / restore the trained detector (vocabulary + parameters).
  /// save() writes the v2 checksummed binary format for the default
  /// "cnn" backend (byte-identical to pre-registry builds) and the v3
  /// format — v2 plus the backend name — for every other backend;
  /// load() reads v3, v2, and the legacy v1 text format (restoring the
  /// recorded backend; v1/v2 imply "cnn") and throws std::runtime_error
  /// on truncated or corrupt files of any version.
  void save(const std::string& path) const;
  void load(const std::string& path);
  /// Legacy v1 text writer, kept so back-compat loading stays testable
  /// (and to measure the v2 speedup in bench/micro_pipeline).
  void save_text_v1(const std::string& path) const;

 private:
  void build_model();
  static std::vector<std::pair<std::string, float>> top_attention_tokens(
      const std::vector<float>& weights, const std::vector<std::string>& tokens,
      int top_k);

  PipelineConfig config_;
  normalize::Vocabulary vocab_;
  std::unique_ptr<models::Detector> model_;
};

}  // namespace sevuldet::core
