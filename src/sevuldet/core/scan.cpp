#include "sevuldet/core/scan.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sevuldet/frontend/recover.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/slicer/special_tokens.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/mmap_file.hpp"
#include "sevuldet/util/strings.hpp"
#include "sevuldet/util/thread_pool.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::core {

namespace fs = std::filesystem;

namespace {

int count_lines(std::string_view text) {
  if (text.empty()) return 0;
  int lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  if (text.back() != '\n') ++lines;
  return lines;
}

/// Degrade a lost region to the lex-fallback gadget path: every risky
/// library call inside it becomes a pseudo-gadget of the surrounding
/// lines. The region failed the parser, so there is no slice — a small
/// fixed line window stands in for it. normalize_gadget() tokenizes the
/// lines through its own lexer fallback, which never throws.
void append_fallback_gadgets(const frontend::LostRegion& region,
                             const normalize::Vocabulary& vocab,
                             std::vector<PreparedGadget>& out) {
  const std::vector<std::string> lines = util::split_lines(region.text);
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
      if (!call || !slicer::is_risky_library_function(word)) continue;

      PreparedGadget prepared;
      prepared.token.category = slicer::TokenCategory::FunctionCall;
      prepared.token.unit = -1;
      prepared.token.line = region.begin_line + static_cast<int>(li);
      prepared.token.text = std::string(word);
      prepared.gadget.token = prepared.token;
      prepared.gadget.path_sensitive = false;
      const std::size_t lo = li >= 4 ? li - 4 : 0;
      const std::size_t hi = std::min(lines.size() - 1, li + 3);
      for (std::size_t g = lo; g <= hi; ++g) {
        slicer::GadgetLine gadget_line;
        gadget_line.line = region.begin_line + static_cast<int>(g);
        gadget_line.text = std::string(util::trim(lines[g]));
        if (gadget_line.text.empty()) continue;
        prepared.gadget.lines.push_back(std::move(gadget_line));
      }
      if (prepared.gadget.lines.empty()) {
        util::metrics::counter_add("scan.drop.empty_fallback");
        continue;
      }
      prepared.norm = normalize::normalize_gadget(prepared.gadget);
      if (prepared.norm.tokens.empty()) {
        util::metrics::counter_add("scan.drop.empty_fallback");
        continue;
      }
      prepared.ids = vocab.encode(prepared.norm.tokens);
      out.push_back(std::move(prepared));
    }
  }
}

/// Scan one buffer with an explicit scoring model (the caller picks the
/// per-worker clone). Serial within the file; tree-level parallelism is
/// across files.
FileScanResult scan_buffer(SeVulDet& detector, models::Detector& model,
                           std::string label, std::string_view source,
                           const ScanOptions& options,
                           const std::vector<std::string>& include_roots,
                           const std::string& current_dir) {
  util::trace::ScopedSpan span("scan.file");
  util::metrics::counter_add("scan.files");
  FileScanResult result;
  result.path = std::move(label);

  frontend::PreprocessResult pre;
  if (options.run_preprocessor) {
    util::trace::ScopedSpan pre_span("frontend.preprocess");
    frontend::PreprocessOptions pre_options = options.preprocess;
    pre_options.include_roots = include_roots;
    pre_options.current_dir = current_dir;
    pre = frontend::preprocess(source, pre_options);
  } else {
    pre.text.assign(source.begin(), source.end());
  }
  result.stats.preprocess = pre.stats;
  result.stats.preprocessed = pre.changed;
  result.stats.lines_total = count_lines(pre.text);

  frontend::RecoveredParse parsed = frontend::parse_with_recovery(pre.text);
  result.stats.parse_clean = parsed.clean;
  result.stats.chunks_total = parsed.chunks_total;
  result.stats.chunks_recovered = parsed.chunks_recovered;
  result.stats.lost_regions = static_cast<int>(parsed.lost.size());
  for (const frontend::LostRegion& region : parsed.lost) {
    result.stats.lines_lost += region.end_line - region.begin_line + 1;
  }

  graph::ProgramGraph program =
      graph::build_program_graph(std::move(parsed.unit), pre.text);
  std::vector<PreparedGadget> prepared = detector.prepare_program(program);
  const std::size_t first_fallback = prepared.size();
  for (const frontend::LostRegion& region : parsed.lost) {
    append_fallback_gadgets(region, detector.vocab(), prepared);
  }
  result.stats.fallback_gadgets =
      static_cast<int>(prepared.size() - first_fallback);
  if (result.stats.fallback_gadgets > 0) {
    util::metrics::counter_add(
        "scan.fallback_gadgets",
        static_cast<long long>(result.stats.fallback_gadgets));
  }

  std::vector<models::BatchItem> items;
  items.reserve(prepared.size());
  for (PreparedGadget& gadget : prepared) {
    items.push_back({&gadget.ids, options.detect.explain, &gadget.graph});
  }
  std::vector<models::Prediction> predictions(items.size());
  model.predict_batch(items.data(), items.size(), predictions.data());

  for (std::size_t i = 0; i < prepared.size(); ++i) {
    std::optional<Finding> finding = detector.finding_from_prediction(
        prepared[i], predictions[i], options.detect);
    if (!finding.has_value()) continue;
    // Map preprocessed-text lines back to the file the user pointed the
    // scanner at; findings whose special token came from an #include
    // belong to that header, not this file.
    const int origin = pre.origin_line(finding->line);
    if (origin == 0) {
      ++result.stats.findings_dropped_include;
      util::metrics::counter_add("scan.drop.include_origin");
      continue;
    }
    finding->line = origin;
    for (TokenAttribution& attribution : finding->attributions) {
      attribution.line = pre.origin_line(attribution.line);
    }
    if (i >= first_fallback) ++result.stats.fallback_findings;
    result.findings.push_back(std::move(*finding));
  }
  SeVulDet::sort_findings(result.findings);
  util::metrics::counter_add("scan.findings",
                             static_cast<long long>(result.findings.size()));
  return result;
}

void require_trained(const SeVulDet& detector) {
  if (!detector.trained()) {
    throw std::logic_error("SeVulDet scan before train/load");
  }
}

FileScanResult failed_file(std::string path, const char* error) {
  util::metrics::counter_add("scan.files");
  util::metrics::counter_add("scan.files_failed");
  FileScanResult result;
  result.path = std::move(path);
  result.ok = false;
  result.error = error;
  return result;
}

}  // namespace

std::vector<std::string> list_scan_files(
    const std::string& root, const std::vector<std::string>& extensions) {
  std::vector<std::string> out;
  const fs::path base(root);
  std::error_code ec;
  fs::recursive_directory_iterator it(base, ec);
  if (ec) return out;
  for (const fs::directory_entry& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    const std::string ext = entry.path().extension().string();
    if (std::find(extensions.begin(), extensions.end(), ext) ==
        extensions.end()) {
      continue;
    }
    out.push_back(entry.path().lexically_relative(base).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

FileScanResult scan_source(SeVulDet& detector, const std::string& label,
                           std::string_view source,
                           const ScanOptions& options) {
  require_trained(detector);
  return scan_buffer(detector, detector.model(), label, source, options,
                     options.preprocess.include_roots,
                     options.preprocess.current_dir);
}

FileScanResult scan_file(SeVulDet& detector, const std::string& path,
                         const ScanOptions& options) {
  require_trained(detector);
  std::vector<std::string> roots = options.preprocess.include_roots;
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  if (roots.empty()) roots.push_back(dir);
  try {
    const util::MmapFile file = util::MmapFile::open(path);
    return scan_buffer(detector, detector.model(), path, file.view(), options,
                       roots, dir);
  } catch (const std::runtime_error& e) {
    return failed_file(path, e.what());
  }
}

TreeScanResult scan_tree(SeVulDet& detector, const std::string& root,
                         const ScanOptions& options) {
  util::trace::ScopedSpan span("scan.tree");
  require_trained(detector);

  TreeScanResult tree;
  tree.root = root;
  const std::vector<std::string> files =
      list_scan_files(root, options.extensions);
  tree.files.resize(files.size());
  std::vector<long long> sizes(files.size(), 0);

  std::vector<std::string> roots = options.preprocess.include_roots;
  if (roots.empty()) roots.push_back(root);

  auto scan_one = [&](models::Detector& model, std::size_t i) {
    const fs::path abs = fs::path(root) / files[i];
    try {
      const util::MmapFile file = util::MmapFile::open(abs.string());
      sizes[i] = static_cast<long long>(file.size());
      tree.files[i] =
          scan_buffer(detector, model, files[i], file.view(), options, roots,
                      abs.parent_path().string());
    } catch (const std::runtime_error& e) {
      tree.files[i] = failed_file(files[i], e.what());
    }
  };

  const int requested =
      options.threads != 0 ? options.threads : detector.config().corpus.threads;
  const int threads = util::resolve_threads(requested);
  if (threads > 1 && files.size() > 1) {
    util::ThreadPool pool(threads);
    std::vector<std::unique_ptr<models::Detector>> clones(
        static_cast<std::size_t>(pool.size()));
    for (auto& clone : clones) clone = detector.model().clone();
    pool.parallel_chunks(files.size(), [&](int worker, std::size_t begin,
                                           std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        scan_one(*clones[static_cast<std::size_t>(worker)], i);
      }
    });
  } else {
    for (std::size_t i = 0; i < files.size(); ++i) {
      scan_one(detector.model(), i);
    }
  }

  TreeScanStats& stats = tree.stats;
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    const FileScanResult& file = tree.files[i];
    ++stats.files;
    if (!file.ok) {
      ++stats.files_failed;
      continue;
    }
    stats.bytes += sizes[i];
    if (!file.stats.parse_clean) ++stats.files_recovered;
    stats.findings += static_cast<int>(file.findings.size());
    stats.fallback_findings += file.stats.fallback_findings;
    stats.lines_total += file.stats.lines_total;
    stats.lines_lost += file.stats.lines_lost;
    stats.includes_resolved += file.stats.preprocess.includes_resolved;
    stats.includes_unresolved += file.stats.preprocess.includes_unresolved;
    stats.macro_expansions += file.stats.preprocess.macro_expansions;
    stats.conditionals += file.stats.preprocess.conditionals;
    stats.unresolved_conditionals +=
        file.stats.preprocess.unresolved_conditionals;
  }
  if (stats.lines_total > 0) {
    stats.parse_drop_rate =
        static_cast<double>(stats.lines_lost) / stats.lines_total;
  }
  const int constructs = stats.includes_resolved + stats.includes_unresolved +
                         stats.conditionals;
  if (constructs > 0) {
    stats.preprocess_drop_rate = std::min(
        1.0, static_cast<double>(stats.includes_unresolved +
                                 stats.unresolved_conditionals) /
                 constructs);
  }
  util::metrics::gauge_set("scan.parse_drop_rate", stats.parse_drop_rate);
  util::metrics::gauge_set("scan.preprocess_drop_rate",
                           stats.preprocess_drop_rate);
  util::metrics::counter_add("scan.trees");
  util::metrics::counter_add("scan.lines_total",
                             static_cast<long long>(stats.lines_total));
  util::metrics::counter_add("scan.lines_lost",
                             static_cast<long long>(stats.lines_lost));
  return tree;
}

}  // namespace sevuldet::core
