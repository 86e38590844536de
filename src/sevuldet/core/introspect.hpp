// Model & dataset introspection: the evaluation breakdown report behind
// `sevuldet report` and the CI quality gate (tools/check_quality.py).
// run_quality_report() trains a detector on the synthetic SARD-like
// corpus (one deterministic k-fold split), evaluates the held-out fold,
// and collects everything a regression investigation needs in one
// document: per-epoch curves, the confusion matrix, P/R/F1 broken down
// per CWE and per gadget-length bucket, a reliability table with ECE,
// ROC AUC, and the gadget-pipeline drop accounting (every counted
// truncate/skip in slicer/normalize/corpus). The JSON rendering is the
// contract with tools/check_quality.py — bump kReportSchemaVersion on
// breaking changes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/dataset/metrics.hpp"
#include "sevuldet/dataset/sard_generator.hpp"

namespace sevuldet::core {

inline constexpr int kReportSchemaVersion = 1;

struct ReportConfig {
  dataset::SardConfig corpus;    // corpus generator settings
  PipelineConfig pipeline;       // model + training settings
  int folds = 5;                 // k-fold split; the report uses fold 0
  std::uint64_t fold_seed = 17;
};

/// One breakdown row: the binary confusion restricted to a slice of the
/// test fold. For per-CWE rows the positives are the samples of that
/// CWE and the negatives are ALL clean test samples (each CWE row is
/// "this flaw class vs the shared clean background", so clean counts
/// repeat across rows). For length buckets every test sample lands in
/// exactly one row.
struct BreakdownRow {
  std::string key;  // CWE id, or length-bucket label like "21-40"
  dataset::Confusion confusion;
};

struct EvaluationReport {
  // Provenance: which corpus this report measured. The fingerprint is
  // content-addressed (dataset/corpus_io.hpp) and exact across machines;
  // the float metrics below are not, so the gate holds them to floors
  // and tolerances instead of equality.
  std::string corpus_fingerprint;  // 16 hex digits
  long long total_samples = 0;
  long long vulnerable_samples = 0;
  long long train_samples = 0;
  long long test_samples = 0;

  // Training curves (per epoch).
  std::vector<float> epoch_losses;
  std::vector<float> epoch_accuracies;
  double train_seconds = 0.0;

  // Held-out fold evaluation.
  std::string backend = "cnn";  // detector backend the run trained
  dataset::Confusion confusion;
  double auc = 0.5;
  dataset::Calibration calibration;
  std::vector<BreakdownRow> by_cwe;
  std::vector<BreakdownRow> by_length;

  // Gadget-pipeline drop accounting: every "*.drop.*" counter the run
  // incremented (slicer/normalize/corpus), name -> count.
  std::map<std::string, long long> drops;
};

/// Gadget-length bucket label for a token count (edges 20/40/80).
std::string length_bucket(std::size_t tokens);

/// Run the full generate -> build -> train -> evaluate pipeline and
/// assemble the report. Deterministic for a fixed config (single-
/// threaded word2vec): two runs produce byte-identical JSON apart from
/// the wall-time `training.seconds` field (which the gate never
/// compares).
EvaluationReport run_quality_report(const ReportConfig& config);

/// Serialize for tools/check_quality.py (schema_version, corpus,
/// training, evaluation, calibration, drops).
std::string report_to_json(const EvaluationReport& report);

/// Human-readable rendering: aligned tables (util/table) for the
/// breakdowns plus the headline metrics.
std::string report_summary(const EvaluationReport& report);

/// Serialize `sevuldet explain` findings — ranked per-token attributions
/// with (file, function, line) provenance and the CBAM spatial map.
std::string explanations_to_json(const std::string& file,
                                 const std::vector<Finding>& findings);

/// `sevuldet report --compare cnn,gat`: one full quality report per
/// backend over the SAME corpus and the SAME fold (corpus generation and
/// the k-fold split are deterministic in the config seeds, so every
/// backend trains and evaluates on identical sample sets — the runs
/// differ only in the detector).
struct ComparisonReport {
  std::vector<EvaluationReport> runs;  // one per backend, input order
};

/// Run run_quality_report once per backend name. Throws
/// std::invalid_argument on an unknown backend.
ComparisonReport run_comparison_report(const ReportConfig& config,
                                       const std::vector<std::string>& backends);

/// {"schema_version": ..., "runs": [<report json>, ...]}.
std::string comparison_to_json(const ComparisonReport& comparison);

/// Side-by-side headline table (backend, F1, AUC, P, R, train seconds).
std::string comparison_summary(const ComparisonReport& comparison);

}  // namespace sevuldet::core
