#include "traced_pipeline.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

#include "common.hpp"
#include "sevuldet/dataset/gadget_graph.hpp"
#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/frontend/preprocess.hpp"
#include "sevuldet/frontend/recover.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/normalize/normalize.hpp"
#include "sevuldet/slicer/gadget.hpp"
#include "sevuldet/slicer/special_tokens.hpp"
#include "sevuldet/util/strings.hpp"

namespace perfbench {

namespace core = sevuldet::core;
namespace models = sevuldet::models;

void LayerTrace::merge(const LayerTrace& o) {
  file_ms += o.file_ms;
  preprocess_ms += o.preprocess_ms;
  parse_ms += o.parse_ms;
  graph_ms += o.graph_ms;
  prepare_ms += o.prepare_ms;
  slicer_ms += o.slicer_ms;
  normalize_ms += o.normalize_ms;
  predict_ms += o.predict_ms;
  finding_ms += o.finding_ms;
  files += o.files;
  bytes += o.bytes;
  lines_total += o.lines_total;
  lines_lost += o.lines_lost;
  functions += o.functions;
  gadgets += o.gadgets;
  gadget_lines += o.gadget_lines;
  tokens += o.tokens;
  predict_calls += o.predict_calls;
  file_samples_ms.insert(file_samples_ms.end(), o.file_samples_ms.begin(),
                         o.file_samples_ms.end());
}

double LayerTrace::coverage() const {
  if (file_ms <= 0.0) return 0.0;
  return (preprocess_ms + parse_ms + graph_ms + prepare_ms + predict_ms +
          finding_ms) /
         file_ms;
}

namespace {

int count_lines(std::string_view text) {
  if (text.empty()) return 0;
  int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  if (text.back() != '\n') ++lines;
  return lines;
}

/// Normalize + encode one gadget into `prepared`; false when the gadget
/// has no tokens (detect() drops those).
bool normalize_into(core::PreparedGadget& prepared,
                    const sevuldet::normalize::Vocabulary& vocab,
                    LayerTrace& trace) {
  const Clock::time_point t0 = Clock::now();
  prepared.norm = sevuldet::normalize::normalize_gadget(prepared.gadget);
  const bool kept = !prepared.norm.tokens.empty();
  if (kept) prepared.ids = vocab.encode(prepared.norm.tokens);
  trace.normalize_ms += ms_since(t0);
  return kept;
}

/// The special-token gadgets of a parsed program (SeVulDet::
/// prepare_program). Runs under the caller's core.prepare span.
std::vector<core::PreparedGadget> prepare_program(
    const core::SeVulDet& detector, const sevuldet::graph::ProgramGraph& program,
    LayerTrace& trace) {
  Clock::time_point t0 = Clock::now();
  const std::vector<sevuldet::slicer::SpecialToken> tokens =
      sevuldet::slicer::find_special_tokens(program);
  trace.slicer_ms += ms_since(t0);

  std::vector<core::PreparedGadget> prepared;
  prepared.reserve(tokens.size());
  for (const auto& token : tokens) {
    core::PreparedGadget p;
    p.token = token;
    t0 = Clock::now();
    p.gadget = sevuldet::slicer::generate_gadget(program, token,
                                                 detector.config().corpus.gadget);
    trace.slicer_ms += ms_since(t0);
    if (p.gadget.lines.empty()) continue;
    if (!normalize_into(p, detector.vocab(), trace)) continue;
    p.graph = sevuldet::dataset::build_gadget_graph(program, p.gadget, p.norm);
    prepared.push_back(std::move(p));
  }
  return prepared;
}

/// Lost regions degrade to lex-fallback pseudo-gadgets: every risky
/// library call becomes a gadget of the lines around it (the scan
/// frontend's fallback, rebuilt here from public helpers).
void append_fallback_gadgets(const sevuldet::frontend::LostRegion& region,
                             const sevuldet::normalize::Vocabulary& vocab,
                             std::vector<core::PreparedGadget>& out,
                             LayerTrace& trace) {
  const Clock::time_point t0 = Clock::now();
  double normalize_before = trace.normalize_ms;
  const std::vector<std::string> lines = sevuldet::util::split_lines(region.text);
  auto ident_start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  auto ident_cont = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    for (std::size_t i = 0; i < line.size();) {
      if (!ident_start(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < line.size() && ident_cont(line[j])) ++j;
      const std::string_view word(line.data() + i, j - i);
      std::size_t k = j;
      while (k < line.size() && (line[k] == ' ' || line[k] == '\t')) ++k;
      const bool call = k < line.size() && line[k] == '(';
      i = j;
      if (!call || !sevuldet::slicer::is_risky_library_function(word)) continue;

      core::PreparedGadget prepared;
      prepared.token.category = sevuldet::slicer::TokenCategory::FunctionCall;
      prepared.token.unit = -1;
      prepared.token.line = region.begin_line + static_cast<int>(li);
      prepared.token.text = std::string(word);
      prepared.gadget.token = prepared.token;
      prepared.gadget.path_sensitive = false;
      const std::size_t lo = li >= 4 ? li - 4 : 0;
      const std::size_t hi = std::min(lines.size() - 1, li + 3);
      for (std::size_t g = lo; g <= hi; ++g) {
        sevuldet::slicer::GadgetLine gadget_line;
        gadget_line.line = region.begin_line + static_cast<int>(g);
        gadget_line.text = std::string(sevuldet::util::trim(lines[g]));
        if (gadget_line.text.empty()) continue;
        prepared.gadget.lines.push_back(std::move(gadget_line));
      }
      if (prepared.gadget.lines.empty()) continue;
      if (!normalize_into(prepared, vocab, trace)) continue;
      out.push_back(std::move(prepared));
    }
  }
  // Everything but the nested normalize calls is slicer work.
  trace.slicer_ms += ms_since(t0) - (trace.normalize_ms - normalize_before);
}

/// Score every prepared gadget in one predict_batch call (what detect()
/// and the scan frontend do per file).
std::vector<models::Prediction> predict(models::Detector& model,
                                        std::vector<core::PreparedGadget>& prepared,
                                        LayerTrace& trace) {
  const Clock::time_point t0 = Clock::now();
  std::vector<models::BatchItem> items;
  items.reserve(prepared.size());
  for (core::PreparedGadget& gadget : prepared) {
    items.push_back({&gadget.ids, false, &gadget.graph});
  }
  std::vector<models::Prediction> predictions(items.size());
  model.predict_batch(items.data(), items.size(), predictions.data());
  trace.predict_ms += ms_since(t0);
  ++trace.predict_calls;
  return predictions;
}

void count_prepared(const std::vector<core::PreparedGadget>& prepared,
                    LayerTrace& trace) {
  trace.gadgets += static_cast<long long>(prepared.size());
  for (const core::PreparedGadget& p : prepared) {
    trace.gadget_lines += static_cast<long long>(p.gadget.lines.size());
    trace.tokens += static_cast<long long>(p.ids.size());
  }
}

}  // namespace

core::FileScanResult traced_scan(core::SeVulDet& detector,
                                 models::Detector& model,
                                 const std::string& label,
                                 std::string_view source,
                                 const core::ScanOptions& options,
                                 const std::vector<std::string>& roots,
                                 const std::string& current_dir,
                                 LayerTrace& trace) {
  const Clock::time_point file_t0 = Clock::now();
  core::FileScanResult result;
  result.path = label;

  Clock::time_point t0 = Clock::now();
  sevuldet::frontend::PreprocessOptions pre_options = options.preprocess;
  pre_options.include_roots = roots;
  pre_options.current_dir = current_dir;
  sevuldet::frontend::PreprocessResult pre =
      sevuldet::frontend::preprocess(source, pre_options);
  result.stats.preprocess = pre.stats;
  result.stats.preprocessed = pre.changed;
  result.stats.lines_total = count_lines(pre.text);
  trace.preprocess_ms += ms_since(t0);

  t0 = Clock::now();
  sevuldet::frontend::RecoveredParse parsed =
      sevuldet::frontend::parse_with_recovery(pre.text);
  result.stats.parse_clean = parsed.clean;
  result.stats.chunks_total = parsed.chunks_total;
  result.stats.chunks_recovered = parsed.chunks_recovered;
  result.stats.lost_regions = static_cast<int>(parsed.lost.size());
  for (const auto& region : parsed.lost) {
    result.stats.lines_lost += region.end_line - region.begin_line + 1;
  }
  trace.parse_ms += ms_since(t0);

  t0 = Clock::now();
  sevuldet::graph::ProgramGraph program =
      sevuldet::graph::build_program_graph(std::move(parsed.unit), pre.text);
  trace.graph_ms += ms_since(t0);

  t0 = Clock::now();
  std::vector<core::PreparedGadget> prepared =
      prepare_program(detector, program, trace);
  const std::size_t first_fallback = prepared.size();
  for (const auto& region : parsed.lost) {
    append_fallback_gadgets(region, detector.vocab(), prepared, trace);
  }
  result.stats.fallback_gadgets =
      static_cast<int>(prepared.size() - first_fallback);
  trace.prepare_ms += ms_since(t0);

  const std::vector<models::Prediction> predictions =
      predict(model, prepared, trace);

  t0 = Clock::now();
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    std::optional<core::Finding> finding = detector.finding_from_prediction(
        prepared[i], predictions[i], options.detect);
    if (!finding.has_value()) continue;
    const int origin = pre.origin_line(finding->line);
    if (origin == 0) {
      ++result.stats.findings_dropped_include;
      continue;
    }
    finding->line = origin;
    for (core::TokenAttribution& attribution : finding->attributions) {
      attribution.line = pre.origin_line(attribution.line);
    }
    if (i >= first_fallback) ++result.stats.fallback_findings;
    result.findings.push_back(std::move(*finding));
  }
  core::SeVulDet::sort_findings(result.findings);
  trace.finding_ms += ms_since(t0);

  count_prepared(prepared, trace);
  ++trace.files;
  trace.bytes += static_cast<long long>(source.size());
  trace.lines_total += result.stats.lines_total;
  trace.lines_lost += result.stats.lines_lost;
  trace.functions += static_cast<long long>(program.functions.size());
  const double file_ms = ms_since(file_t0);
  trace.file_ms += file_ms;
  trace.file_samples_ms.push_back(file_ms);
  return result;
}

std::vector<core::Finding> traced_detect(core::SeVulDet& detector,
                                         models::Detector& model,
                                         const std::string& source,
                                         LayerTrace& trace) {
  const Clock::time_point file_t0 = Clock::now();
  Clock::time_point t0 = Clock::now();
  sevuldet::frontend::TranslationUnit unit = sevuldet::frontend::parse(source);
  trace.parse_ms += ms_since(t0);

  t0 = Clock::now();
  sevuldet::graph::ProgramGraph program =
      sevuldet::graph::build_program_graph(std::move(unit), source);
  trace.graph_ms += ms_since(t0);

  t0 = Clock::now();
  std::vector<core::PreparedGadget> prepared =
      prepare_program(detector, program, trace);
  trace.prepare_ms += ms_since(t0);

  const std::vector<models::Prediction> predictions =
      predict(model, prepared, trace);

  t0 = Clock::now();
  const core::DetectOptions options;
  std::vector<core::Finding> findings;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (auto finding = detector.finding_from_prediction(prepared[i],
                                                        predictions[i], options)) {
      findings.push_back(std::move(*finding));
    }
  }
  core::SeVulDet::sort_findings(findings);
  trace.finding_ms += ms_since(t0);

  count_prepared(prepared, trace);
  ++trace.files;
  trace.bytes += static_cast<long long>(source.size());
  trace.lines_total += count_lines(source);
  trace.functions += static_cast<long long>(program.functions.size());
  const double file_ms = ms_since(file_t0);
  trace.file_ms += file_ms;
  trace.file_samples_ms.push_back(file_ms);
  return findings;
}

void emit_layers(Result& result, const LayerTrace& t, int passes,
                 double flops_per_pass) {
  const double n = passes > 0 ? passes : 1;
  auto per_s = [](double count, double ms) {
    return ms > 0.0 ? count / (ms / 1000.0) : 0.0;
  };
  result.metric("frontend.preprocess_ms", t.preprocess_ms / n, "ms");
  result.metric("frontend.parse_ms", t.parse_ms / n, "ms");
  result.metric("frontend.mb_per_s",
                per_s(static_cast<double>(t.bytes) / 1e6,
                      t.preprocess_ms + t.parse_ms),
                "MB/s");
  result.metric("frontend.lines_kept_ratio",
                t.lines_total > 0
                    ? 1.0 - static_cast<double>(t.lines_lost) / t.lines_total
                    : 0.0,
                "ratio");
  result.metric("graph.build_ms", t.graph_ms / n, "ms");
  result.metric("graph.functions", static_cast<double>(t.functions) / n, "count");
  result.metric("slicer.ms", t.slicer_ms / n, "ms");
  result.metric("slicer.gadgets", static_cast<double>(t.gadgets) / n, "count");
  result.metric("slicer.gadget_lines", static_cast<double>(t.gadget_lines) / n,
                "count");
  result.metric("normalize.ms", t.normalize_ms / n, "ms");
  result.metric("normalize.tokens", static_cast<double>(t.tokens) / n, "count");
  result.metric("core.prepare_ms", t.prepare_ms / n, "ms");
  result.metric("core.finding_ms", t.finding_ms / n, "ms");
  result.metric("core.scan_file_ms.p50", percentile(t.file_samples_ms, 50.0),
                "ms");
  result.metric("core.scan_file_ms.p99", percentile(t.file_samples_ms, 99.0),
                "ms");
  result.metric("models.predict_batch_ms", t.predict_ms / n, "ms");
  result.metric("models.gadgets_per_s",
                per_s(static_cast<double>(t.gadgets), t.predict_ms), "1/s");
  result.metric("models.tokens_per_s",
                per_s(static_cast<double>(t.tokens), t.predict_ms), "1/s");
  result.metric("models.batch_size_mean",
                t.predict_calls > 0
                    ? static_cast<double>(t.gadgets) / t.predict_calls
                    : 0.0,
                "count");
  const double predict_ms_per_pass = t.predict_ms / n;
  result.metric("nn.gemm_gflop_per_s",
                predict_ms_per_pass > 0.0
                    ? flops_per_pass / (predict_ms_per_pass * 1e6)
                    : 0.0,
                "GFLOP/s");
  result.metric("trace.coverage", t.coverage(), "ratio");
}

}  // namespace perfbench
