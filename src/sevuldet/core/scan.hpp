// Real-world scan frontend: zero-copy file ingestion (util/mmap_file),
// lightweight preprocessing (frontend/preprocess), error-resilient
// parsing (frontend/recover) and parallel per-file scanning over a
// directory tree. Unlike detect(), which expects a single well-formed
// translation unit, this path is built for code as it exists in real
// repositories: unresolved includes, macros, conditional compilation,
// and constructs the toy C parser rejects. Nothing is silently lost —
// regions that resist even recovery are degraded to the lex-fallback
// gadget path, and every drop is counted (frontend.drop.*, scan.*) so
// the CI drop-rate gate sees it.
//
// Determinism: a file's result depends only on its own bytes and the
// model (eval-mode forwards are deterministic), and the tree merge is
// by sorted path index — so a parallel scan is byte-identical to a
// serial one, and a daemon tree scan is byte-identical to in-process.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/frontend/preprocess.hpp"

namespace sevuldet::core {

struct ScanOptions {
  DetectOptions detect;
  /// Preprocessor knobs. include_roots empty => the scan root (for
  /// scan_tree) or the file's directory (for scan_file). current_dir is
  /// filled per file.
  frontend::PreprocessOptions preprocess;
  bool run_preprocessor = true;
  /// Worker threads for scan_tree (0 = config().corpus.threads rules,
  /// which itself treats <= 0 as all cores). Results are identical for
  /// any thread count.
  int threads = 0;
  /// File extensions scan_tree picks up.
  std::vector<std::string> extensions = {".c", ".h"};
};

/// Per-file frontend accounting. "Lines" are physical lines of the
/// preprocessed text, so lost-region line counts line up exactly.
struct FileScanStats {
  bool preprocessed = false;    // preprocessor changed the bytes
  bool parse_clean = true;      // full parse succeeded first try
  int chunks_total = 0;         // recovery chunks attempted
  int chunks_recovered = 0;     // recovery chunks that parsed
  int lost_regions = 0;         // chunks that resisted recovery
  int lines_total = 0;
  int lines_lost = 0;           // lines inside lost regions
  int fallback_gadgets = 0;     // pseudo-gadgets built from lost regions
  int fallback_findings = 0;    // findings those produced
  int findings_dropped_include = 0;  // findings on include-origin lines
  frontend::PreprocessStats preprocess;
};

struct FileScanResult {
  std::string path;   // as given (relative to the root for tree scans)
  bool ok = true;     // false: file unreadable, `error` says why
  std::string error;
  std::vector<Finding> findings;  // lines in original-file coordinates
  FileScanStats stats;
};

struct TreeScanStats {
  int files = 0;            // files scanned (including failed ones)
  int files_failed = 0;     // unreadable
  int files_recovered = 0;  // needed chunk recovery
  long long bytes = 0;
  int findings = 0;
  int fallback_findings = 0;
  int lines_total = 0;
  int lines_lost = 0;
  int includes_resolved = 0;
  int includes_unresolved = 0;
  int macro_expansions = 0;
  int conditionals = 0;
  int unresolved_conditionals = 0;
  /// lines_lost / lines_total — the share of scanned code the parser
  /// dropped even after recovery (those lines still get the fallback
  /// gadget treatment).
  double parse_drop_rate = 0.0;
  /// Unresolved includes + unparseable conditionals over all constructs
  /// the preprocessor faced.
  double preprocess_drop_rate = 0.0;
};

struct TreeScanResult {
  std::string root;
  std::vector<FileScanResult> files;  // sorted by relative path
  TreeScanStats stats;
};

/// Files under `root` (recursive) with one of `extensions`, as sorted
/// root-relative paths — the deterministic work list of scan_tree.
std::vector<std::string> list_scan_files(
    const std::string& root, const std::vector<std::string>& extensions);

/// scan_source, scan_file and scan_tree throw std::logic_error on a
/// detector that was never trained or loaded.

/// Scan one in-memory buffer; `label` is the path reported in results.
FileScanResult scan_source(SeVulDet& detector, const std::string& label,
                           std::string_view source,
                           const ScanOptions& options = {});

/// Scan one file via mmap (heap fallback for unmappable files).
FileScanResult scan_file(SeVulDet& detector, const std::string& path,
                         const ScanOptions& options = {});

/// Scan every matching file under `root`, fanned out per file on a
/// util::ThreadPool with per-worker model clones. Findings and stats
/// are byte-identical to a serial scan.
TreeScanResult scan_tree(SeVulDet& detector, const std::string& root,
                         const ScanOptions& options = {});

}  // namespace sevuldet::core
