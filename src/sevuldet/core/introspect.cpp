#include "sevuldet/core/introspect.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

#include "sevuldet/dataset/corpus_io.hpp"
#include "sevuldet/dataset/kfold.hpp"
#include "sevuldet/slicer/special_tokens.hpp"
#include "sevuldet/util/json.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/strings.hpp"
#include "sevuldet/util/table.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::core {

namespace json = util::json;
namespace metrics = util::metrics;

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Restores the metrics-registry enabled flag on scope exit, so the
/// report can force counters on without clobbering the caller's
/// observability settings.
class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : was_enabled_(metrics::enabled()) {
    metrics::set_enabled(true);
  }
  ~MetricsEnabledGuard() { metrics::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

/// Counter deltas between two snapshots whose names contain ".drop.".
std::map<std::string, long long> drop_deltas(
    const std::map<std::string, long long>& before,
    const std::map<std::string, long long>& after) {
  std::map<std::string, long long> drops;
  for (const auto& [name, count] : after) {
    if (name.find(".drop.") == std::string::npos) continue;
    long long base = 0;
    if (auto it = before.find(name); it != before.end()) base = it->second;
    if (count - base > 0) drops[name] = count - base;
  }
  return drops;
}

void append_confusion_fields(std::string& out,
                             const dataset::Confusion& confusion) {
  out += "\"tp\": ";
  json::append_number(out, static_cast<double>(confusion.tp));
  out += ", \"fp\": ";
  json::append_number(out, static_cast<double>(confusion.fp));
  out += ", \"tn\": ";
  json::append_number(out, static_cast<double>(confusion.tn));
  out += ", \"fn\": ";
  json::append_number(out, static_cast<double>(confusion.fn));
  out += ", \"accuracy\": ";
  json::append_number(out, confusion.accuracy());
  out += ", \"precision\": ";
  json::append_number(out, confusion.precision());
  out += ", \"recall\": ";
  json::append_number(out, confusion.recall());
  out += ", \"f1\": ";
  json::append_number(out, confusion.f1());
}

void append_breakdown(std::string& out, const char* name,
                      const std::vector<BreakdownRow>& rows) {
  out += "    \"";
  out += name;
  out += "\": [";
  bool first = true;
  for (const auto& row : rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      {\"key\": ";
    json::append_string(out, row.key);
    out += ", ";
    append_confusion_fields(out, row.confusion);
    out += "}";
  }
  out += first ? "]" : "\n    ]";
}

void append_float_array(std::string& out, const std::vector<float>& values) {
  out += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    json::append_number(out, static_cast<double>(values[i]));
  }
  out += "]";
}

std::string pct(double fraction) { return util::fmt(fraction * 100.0, 1); }

}  // namespace

std::string length_bucket(std::size_t tokens) {
  if (tokens <= 20) return "1-20";
  if (tokens <= 40) return "21-40";
  if (tokens <= 80) return "41-80";
  return ">80";
}

EvaluationReport run_quality_report(const ReportConfig& config) {
  util::trace::ScopedSpan span("report");
  EvaluationReport report;

  // Drop accounting needs the counters on for the duration of the run.
  MetricsEnabledGuard metrics_guard;
  const auto counters_before = metrics::snapshot().counters;

  auto cases = dataset::generate_sard_like(config.corpus);
  auto corpus = dataset::build_corpus(cases, config.pipeline.corpus);
  dataset::encode_corpus(corpus, config.pipeline.corpus.min_token_count);
  report.corpus_fingerprint = hex64(dataset::corpus_fingerprint(corpus));
  report.total_samples = static_cast<long long>(corpus.samples.size());
  report.vulnerable_samples = corpus.stats.vulnerable();

  const auto splits =
      dataset::k_fold_splits(corpus.samples.size(), config.folds,
                             config.fold_seed);
  const auto& split = splits.front();
  report.train_samples = static_cast<long long>(split.train.size());
  report.test_samples = static_cast<long long>(split.test.size());

  SeVulDet detector(config.pipeline);
  auto train_result =
      detector.train_on_corpus(corpus, sample_refs(corpus, split.train));
  report.epoch_losses = train_result.epoch_losses;
  report.epoch_accuracies = train_result.epoch_accuracies;
  report.train_seconds = train_result.seconds;

  // Held-out evaluation: the whole test fold is scored in one
  // length-bucketed predict_batch call, then every breakdown is fed
  // from the returned probabilities.
  util::trace::ScopedSpan eval_span("report.eval");
  report.backend = config.pipeline.backend;
  std::vector<models::BatchItem> items;
  items.reserve(split.test.size());
  for (std::size_t idx : split.test) {
    items.push_back({&corpus.samples[idx].ids, false, &corpus.samples[idx].graph});
  }
  std::vector<models::Prediction> scored(items.size());
  detector.model().predict_batch(items.data(), items.size(), scored.data());
  const float threshold = config.pipeline.model.threshold;
  std::vector<dataset::ScoredPrediction> predictions;
  predictions.reserve(split.test.size());
  std::map<std::string, dataset::Confusion> by_cwe;
  std::map<std::string, dataset::Confusion> by_length;
  dataset::Confusion clean_by_cwe;  // shared negatives for every CWE row
  std::size_t scored_idx = 0;
  for (std::size_t idx : split.test) {
    const auto& sample = corpus.samples[idx];
    const float probability = scored[scored_idx++].probability;
    const bool predicted = probability > threshold;
    const bool actual = sample.label == 1;
    report.confusion.record(predicted, actual);
    predictions.push_back({probability, sample.label});
    by_length[length_bucket(sample.ids.size())].record(predicted, actual);
    if (actual) {
      by_cwe[sample.cwe.empty() ? "unknown" : sample.cwe].record(predicted,
                                                                 true);
    } else {
      clean_by_cwe.record(predicted, false);
    }
  }
  for (auto& [cwe, confusion] : by_cwe) {
    confusion += clean_by_cwe;
    report.by_cwe.push_back({cwe, confusion});
  }
  // Buckets in ascending length order, not lexicographic.
  for (const char* bucket : {"1-20", "21-40", "41-80", ">80"}) {
    if (auto it = by_length.find(bucket); it != by_length.end()) {
      report.by_length.push_back({bucket, it->second});
    }
  }
  report.auc = dataset::roc_auc(predictions);
  report.calibration = dataset::calibrate(predictions);
  report.drops = drop_deltas(counters_before, metrics::snapshot().counters);
  return report;
}

std::string report_to_json(const EvaluationReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": ";
  json::append_number(out, kReportSchemaVersion);
  out += ",\n  \"corpus\": {\n    \"fingerprint\": ";
  json::append_string(out, report.corpus_fingerprint);
  out += ",\n    \"total_samples\": ";
  json::append_number(out, static_cast<double>(report.total_samples));
  out += ",\n    \"vulnerable_samples\": ";
  json::append_number(out, static_cast<double>(report.vulnerable_samples));
  out += ",\n    \"train_samples\": ";
  json::append_number(out, static_cast<double>(report.train_samples));
  out += ",\n    \"test_samples\": ";
  json::append_number(out, static_cast<double>(report.test_samples));
  out += "\n  },\n  \"training\": {\n    \"seconds\": ";
  json::append_number(out, report.train_seconds);
  out += ",\n    \"epoch_losses\": ";
  append_float_array(out, report.epoch_losses);
  out += ",\n    \"epoch_accuracies\": ";
  append_float_array(out, report.epoch_accuracies);
  out += "\n  },\n  \"evaluation\": {\n    \"backend\": ";
  json::append_string(out, report.backend);
  // Scoring is always fp32; the key stays because report schema v1
  // (and the committed QUALITY_*baseline.json files) carry it.
  out += ",\n    \"precision\": \"fp32\"";
  out += ",\n    \"confusion\": {";
  append_confusion_fields(out, report.confusion);
  out += "},\n    \"fpr\": ";
  json::append_number(out, report.confusion.fpr());
  out += ",\n    \"fnr\": ";
  json::append_number(out, report.confusion.fnr());
  out += ",\n    \"auc\": ";
  json::append_number(out, report.auc);
  out += ",\n";
  append_breakdown(out, "by_cwe", report.by_cwe);
  out += ",\n";
  append_breakdown(out, "by_length", report.by_length);
  out += "\n  },\n  \"calibration\": {\n    \"ece\": ";
  json::append_number(out, report.calibration.ece);
  out += ",\n    \"bins\": [";
  bool first = true;
  for (const auto& bin : report.calibration.bins) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      {\"lower\": ";
    json::append_number(out, bin.lower);
    out += ", \"upper\": ";
    json::append_number(out, bin.upper);
    out += ", \"count\": ";
    json::append_number(out, static_cast<double>(bin.count));
    out += ", \"mean_probability\": ";
    json::append_number(out, bin.mean_probability);
    out += ", \"frac_positive\": ";
    json::append_number(out, bin.frac_positive);
    out += "}";
  }
  out += first ? "]" : "\n    ]";
  out += "\n  },\n  \"drops\": {";
  first = true;
  for (const auto& [name, count] : report.drops) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    json::append_string(out, name);
    out += ": ";
    json::append_number(out, static_cast<double>(count));
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string report_summary(const EvaluationReport& report) {
  std::string out;
  out += "corpus " + report.corpus_fingerprint + ": " +
         std::to_string(report.total_samples) + " gadgets (" +
         std::to_string(report.vulnerable_samples) + " vulnerable), " +
         std::to_string(report.train_samples) + " train / " +
         std::to_string(report.test_samples) + " test\n";
  out += "epoch loss:";
  for (float loss : report.epoch_losses) out += " " + util::fmt(loss, 4);
  out += "\nepoch accuracy:";
  for (float acc : report.epoch_accuracies) out += " " + pct(acc) + "%";
  out += "\n\nheld-out fold (" + report.backend + ", fp32): " +
         report.confusion.summary() + " AUC=" + util::fmt(report.auc, 3) +
         " ECE=" + util::fmt(report.calibration.ece, 3) + "\n\n";

  auto breakdown_table = [](const char* label,
                            const std::vector<BreakdownRow>& rows) {
    util::Table table({label, "TP", "FP", "TN", "FN", "P%", "R%", "F1%"});
    for (const auto& row : rows) {
      table.add_row({row.key, std::to_string(row.confusion.tp),
                     std::to_string(row.confusion.fp),
                     std::to_string(row.confusion.tn),
                     std::to_string(row.confusion.fn),
                     pct(row.confusion.precision()), pct(row.confusion.recall()),
                     pct(row.confusion.f1())});
    }
    return table.to_string();
  };
  out += breakdown_table("CWE", report.by_cwe) + "\n";
  out += breakdown_table("length", report.by_length) + "\n";

  util::Table calib({"bin", "count", "confidence%", "vulnerable%"});
  for (const auto& bin : report.calibration.bins) {
    calib.add_row({util::fmt(bin.lower, 1) + "-" + util::fmt(bin.upper, 1),
                   std::to_string(bin.count), pct(bin.mean_probability),
                   pct(bin.frac_positive)});
  }
  out += calib.to_string();

  if (!report.drops.empty()) {
    out += "\npipeline drops:\n";
    for (const auto& [name, count] : report.drops) {
      out += "  " + name + ": " + std::to_string(count) + "\n";
    }
  }
  return out;
}

std::string explanations_to_json(const std::string& file,
                                 const std::vector<Finding>& findings) {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"schema_version\": ";
  json::append_number(out, kReportSchemaVersion);
  out += ",\n  \"file\": ";
  json::append_string(out, file);
  out += ",\n  \"findings\": [";
  bool first_finding = true;
  for (const auto& finding : findings) {
    out += first_finding ? "\n" : ",\n";
    first_finding = false;
    out += "    {\n      \"function\": ";
    json::append_string(out, finding.function);
    out += ",\n      \"line\": ";
    json::append_number(out, finding.line);
    out += ",\n      \"category\": ";
    json::append_string(out, slicer::category_name(finding.category));
    out += ",\n      \"token\": ";
    json::append_string(out, finding.token);
    out += ",\n      \"probability\": ";
    json::append_number(out, static_cast<double>(finding.probability));
    out += ",\n      \"attributions\": [";
    bool first = true;
    for (const auto& attribution : finding.attributions) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "        {\"token\": ";
      json::append_string(out, attribution.token);
      out += ", \"original\": ";
      json::append_string(out, attribution.original);
      out += ", \"function\": ";
      json::append_string(out, attribution.function);
      out += ", \"line\": ";
      json::append_number(out, attribution.line);
      out += ", \"weight\": ";
      json::append_number(out, static_cast<double>(attribution.weight));
      out += "}";
    }
    out += first ? "]" : "\n      ]";
    out += ",\n      \"spatial_attention\": ";
    append_float_array(out, finding.spatial_attention);
    out += "\n    }";
  }
  out += first_finding ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

ComparisonReport run_comparison_report(
    const ReportConfig& config, const std::vector<std::string>& backends) {
  ComparisonReport comparison;
  comparison.runs.reserve(backends.size());
  for (const std::string& backend : backends) {
    if (!models::valid_backend(backend)) {
      throw std::invalid_argument("report --compare: unknown backend '" +
                                  backend + "'");
    }
    // Same corpus + same fold across runs: generation and the k-fold
    // split are pure functions of the config seeds, which do not vary
    // with the backend. Only the detector differs.
    ReportConfig run_config = config;
    run_config.pipeline.backend = backend;
    comparison.runs.push_back(run_quality_report(run_config));
  }
  return comparison;
}

std::string comparison_to_json(const ComparisonReport& comparison) {
  std::string out;
  out.reserve(4096 * (comparison.runs.size() + 1));
  out += "{\n  \"schema_version\": ";
  json::append_number(out, kReportSchemaVersion);
  out += ",\n  \"runs\": [";
  bool first = true;
  for (const EvaluationReport& run : comparison.runs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += report_to_json(run);
    // report_to_json ends with "}\n"; drop the trailing newline so the
    // array stays tidy.
    if (!out.empty() && out.back() == '\n') out.pop_back();
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

std::string comparison_summary(const ComparisonReport& comparison) {
  std::string out;
  if (comparison.runs.empty()) return out;
  out += "corpus " + comparison.runs.front().corpus_fingerprint + ": " +
         std::to_string(comparison.runs.front().total_samples) +
         " gadgets, same fold for every backend\n\n";
  util::Table table(
      {"backend", "P%", "R%", "F1%", "AUC", "ECE", "train s"});
  for (const EvaluationReport& run : comparison.runs) {
    table.add_row({run.backend, pct(run.confusion.precision()),
                   pct(run.confusion.recall()), pct(run.confusion.f1()),
                   util::fmt(run.auc, 3), util::fmt(run.calibration.ece, 3),
                   util::fmt(run.train_seconds, 1)});
  }
  out += table.to_string();
  for (const EvaluationReport& run : comparison.runs) {
    if (run.corpus_fingerprint != comparison.runs.front().corpus_fingerprint) {
      out += "\nWARNING: corpus fingerprints differ across runs (" +
             comparison.runs.front().corpus_fingerprint + " vs " +
             run.corpus_fingerprint + ") — comparison is not same-fold\n";
      break;
    }
  }
  return out;
}

}  // namespace sevuldet::core
