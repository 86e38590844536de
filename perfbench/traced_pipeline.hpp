// The traced pipeline: the scan and detect paths re-assembled from the
// library's public calls, with the benchmark's own spans around each
// call. Nothing inside src/ is instrumented; the faithfulness checks in
// the workloads compare every traced result with what core::scan_tree /
// SeVulDet::detect return for the same input, byte for byte.
//
// Span tree per file (self time = span minus its children):
//   core.scan_file
//     frontend.preprocess   frontend::preprocess           (scan path)
//     frontend.parse        parse_with_recovery | parse
//     graph.build           graph::build_program_graph
//     core.prepare          (self: dataset::build_gadget_graph)
//       slicer              find_special_tokens + generate_gadget
//                           (+ the lost-region fallback gadgets)
//       normalize           normalize_gadget + Vocabulary::encode
//     models.predict_batch  Detector::predict_batch
//     core.finding          finding_from_prediction + line mapping + sort
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/scan.hpp"

namespace perfbench {

/// Per-layer time (ms, summed) and work counts over traced files.
struct LayerTrace {
  double file_ms = 0.0;  // parent spans
  double preprocess_ms = 0.0;
  double parse_ms = 0.0;
  double graph_ms = 0.0;
  double prepare_ms = 0.0;  // parent of slicer and normalize
  double slicer_ms = 0.0;
  double normalize_ms = 0.0;
  double predict_ms = 0.0;
  double finding_ms = 0.0;

  long long files = 0;
  long long bytes = 0;
  long long lines_total = 0;
  long long lines_lost = 0;
  long long functions = 0;
  long long gadgets = 0;
  long long gadget_lines = 0;
  long long tokens = 0;
  long long predict_calls = 0;
  std::vector<double> file_samples_ms;

  void merge(const LayerTrace& other);
  /// Direct children of core.scan_file over the parent span time.
  double coverage() const;
};

/// core::scan_source for one buffer, traced. `roots`/`current_dir` are
/// what scan_tree passes for a file of the tree.
sevuldet::core::FileScanResult traced_scan(
    sevuldet::core::SeVulDet& detector, sevuldet::models::Detector& model,
    const std::string& label, std::string_view source,
    const sevuldet::core::ScanOptions& options,
    const std::vector<std::string>& roots, const std::string& current_dir,
    LayerTrace& trace);

/// SeVulDet::detect (serial, fp32) for one translation unit through the
/// strict parser — the path a daemon scan request takes — traced.
std::vector<sevuldet::core::Finding> traced_detect(
    sevuldet::core::SeVulDet& detector, sevuldet::models::Detector& model,
    const std::string& source, LayerTrace& trace);

class Result;

/// Emit the frontend / graph / slicer / normalize / core / models layer
/// metrics of `total`, averaged over `passes` passes over the inputs, and
/// nn.gemm_gflop_per_s from the GEMM work of one pass.
void emit_layers(Result& result, const LayerTrace& total, int passes,
                 double flops_per_pass);

}  // namespace perfbench
