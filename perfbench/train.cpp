// train: the paper's training phase at a small fixed scale —
// SeVulDet::train() on seeded SARD-like programs with the CLI model
// configuration and a fixed epoch count, then scoring a held-out seeded
// set with the trained detector.
//
// Untraced run:
//   setup_s           what train() does before its first epoch: corpus
//                     build + encode, then word2vec (median over repeats
//                     in each fresh training process, then over those)
//   throughput_per_s  training samples x epochs per second of train()
//                     (median over trainings in fresh processes; train_s
//                     is samples x epochs / this)
//   cpu_ms_per_item   train() CPU time per training sample x epoch
//   f1                line-level F1 of detect() on the held-out set,
//                     median over the models of the distinct training
//                     sets (each also gated by kF1Floor)
//   rss_mb            peak RSS of a training process (median)
// Both are scaled to the reference host's speed (median host_speed of
// readings before and after each train()). The second training repeats
// the first one's programs and must write byte-identical model bytes;
// every other training fits a fresh seeded set, so f1 does not hang on
// one small training set.
// Traced run: corpus build -> word2vec -> train_on_corpus, timed apart,
// must produce the model bytes train() produces; the held-out set goes
// through the traced detect pipeline.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "sevuldet/core/trainer.hpp"
#include "sevuldet/nn/word2vec.hpp"
#include "sevuldet/serve/protocol.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sevuldet::core;
namespace dataset = sevuldet::dataset;

namespace {

constexpr int kTrainPairs = 6;      // 4 categories x 2 x 6 = 48 programs
constexpr int kEpochs = 4;
constexpr int kHeldOutPairs = 50;   // 400 held-out programs
constexpr int kSetupRepeats = 5;  // pre-epoch repeats per training process
constexpr std::size_t kMinTrainings = 3;
constexpr int kSpeedReadings = 5;  // host_speed readings before and after train()
/// Floor on the held-out F1; every seed measured while the benchmark was
/// defined scored well above it, so falling under it means training broke.
constexpr double kF1Floor = 0.05;

core::PipelineConfig train_config() {
  core::PipelineConfig config = cli_config();
  config.train.epochs = kEpochs;
  config.train.lr = 0.002f;  // `sevuldet selftrain` settings
  return config;
}

struct Inputs {
  std::vector<dataset::TestCase> train;
  std::vector<dataset::TestCase> held_out;
};

/// Training set `set` of the run seeded `seed`.
std::vector<dataset::TestCase> train_programs(std::uint64_t seed, int set) {
  return sard_programs(mix_seed(mix_seed(seed, 21), static_cast<std::uint64_t>(set)),
                       kTrainPairs);
}

std::vector<dataset::TestCase> held_out_programs(std::uint64_t seed) {
  return sard_programs(mix_seed(seed, 22), kHeldOutPairs);
}

Inputs generate(std::uint64_t seed) {
  return {train_programs(seed, 0), held_out_programs(seed)};
}

/// What train() does before its first epoch, through the same public
/// calls: corpus build + encode, then word2vec over every sample as
/// train_on_corpus runs it. Each part is timed on its own.
struct PreEpoch {
  dataset::Corpus corpus;
  double corpus_ms = 0.0;
  double w2v_ms = 0.0;
};

PreEpoch pre_epoch(const std::vector<dataset::TestCase>& programs,
                   const core::PipelineConfig& config) {
  PreEpoch out;
  Clock::time_point t0 = Clock::now();
  out.corpus = dataset::build_corpus(programs, config.corpus);
  dataset::encode_corpus(out.corpus, config.corpus.min_token_count);
  out.corpus_ms = ms_since(t0);

  sevuldet::nn::Word2VecConfig w2v_config = config.word2vec;
  w2v_config.dim = config.model.embed_dim;
  std::vector<std::vector<int>> sentences;
  for (const auto& sample : out.corpus.samples) sentences.push_back(sample.ids);
  t0 = Clock::now();
  sevuldet::nn::Word2Vec w2v(out.corpus.vocab, w2v_config);
  w2v.train(sentences);
  out.w2v_ms = ms_since(t0);
  return out;
}

std::string saved_bytes(const core::SeVulDet& detector, const std::string& path) {
  detector.save(path);
  return read_file(path);
}

void untraced(const Args& args, Result& result) {
  // Each training runs in a fresh process, so its time and footprint
  // carry no allocator or cache state over from the previous one.
  // Training i fits set max(0, i - 1): training 1 repeats set 0.
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  std::vector<double> setup_ms, rates, cpu_per_sample, hwm_mb, raw_rates, speeds;
  std::vector<std::string> models;  // one per distinct training set
  const Clock::time_point start = Clock::now();
  for (int i = 0; rates.size() < kMinTrainings || ms_since(start) < args.seconds * 1000.0;
       ++i) {
    const std::string model_path = args.work_dir + "/model-" + std::to_string(i) + ".bin";
    std::istringstream out(run_capture({self, "--probe-train", std::to_string(args.seed),
                                        std::to_string(std::max(0, i - 1)), model_path}));
    double pre_epoch_ms = 0.0, train_ms = 0.0, cpu = 0.0, samples = 0.0, hwm = 0.0;
    double speed = 0.0;
    out >> pre_epoch_ms >> train_ms >> cpu >> samples >> hwm >> speed;
    setup_ms.push_back(pre_epoch_ms);
    raw_rates.push_back(samples * kEpochs / (train_ms / 1000.0));
    speeds.push_back(speed);
    rates.push_back(raw_rates.back() / speed);
    cpu_per_sample.push_back(cpu / (samples * kEpochs) * speed);
    hwm_mb.push_back(hwm);
    result.attempt();
    if (i != 1) {
      models.push_back(model_path);
    } else if (read_file(model_path) != read_file(models.front())) {
      result.fail("train() wrote different model bytes on a repeat run");
    }
  }
  result.metric("setup_s", median(setup_ms) / 1000.0, "s");
  result.metric("throughput_per_s", median(rates), "1/s");
  result.metric("cpu_ms_per_item", median(cpu_per_sample), "ms");
  result.metric("rss_mb", median(hwm_mb), "MB");

  const std::vector<dataset::TestCase> held_out = held_out_programs(args.seed);
  std::vector<double> f1s;
  for (const std::string& model_path : models) {
    auto detector = load_detector(model_path, 1);
    sevuldet::dataset::Confusion quality;
    for (const dataset::TestCase& tc : held_out) {
      record_lines(quality, tc.vulnerable_lines, detector->detect(tc.source));
    }
    f1s.push_back(quality.f1());
    if (quality.f1() < kF1Floor) {
      result.broken("held-out F1 " + std::to_string(quality.f1()) +
                    " under the floor " + std::to_string(kF1Floor));
    }
  }
  result.metric("f1", median(f1s), "ratio");
  result.info("trainings", std::to_string(rates.size()));
  result.info("samples_per_s_as_measured", std::to_string(median(raw_rates)));
  result.info("host_speed", std::to_string(median(speeds)));
}

void traced(const Args& args, Result& result) {
  const Inputs inputs = generate(args.seed);
  const core::PipelineConfig config = train_config();

  core::SeVulDet reference(config);
  const core::TrainResult trained = reference.train(inputs.train);
  const std::string reference_bytes =
      saved_bytes(reference, args.work_dir + "/reference.bin");

  const PreEpoch pre = pre_epoch(inputs.train, config);
  const dataset::Corpus& corpus = pre.corpus;

  core::SeVulDet traced_detector(config);
  Clock::time_point t0 = Clock::now();
  traced_detector.train_on_corpus(corpus, core::all_sample_refs(corpus));
  const double fit_ms = std::max(0.0, ms_since(t0) - pre.w2v_ms);
  result.attempt();
  if (saved_bytes(traced_detector, args.work_dir + "/traced.bin") != reference_bytes) {
    result.fail("corpus build + train_on_corpus differs from train()");
  }

  const double samples = static_cast<double>(corpus.samples.size());
  result.metric("dataset.build_corpus_ms", pre.corpus_ms, "ms");
  result.metric("nn.word2vec_ms", pre.w2v_ms, "ms");
  result.metric("core.train_epoch_ms", fit_ms / kEpochs, "ms");
  result.metric("nn.train_samples_per_s",
                fit_ms > 0.0 ? samples * kEpochs / (fit_ms / 1000.0) : 0.0, "1/s");
  result.info("samples", std::to_string(trained.samples));

  t0 = Clock::now();
  load_detector(args.work_dir + "/reference.bin", 1);
  result.metric("nn.load_ms", ms_since(t0), "ms");

  // Held-out scoring through the traced detect pipeline.
  std::vector<std::string> oracle;
  for (const dataset::TestCase& tc : inputs.held_out) {
    oracle.push_back(sevuldet::serve::findings_to_json(reference.detect(tc.source)));
  }
  LayerTrace layers;
  result.attempt(static_cast<long long>(inputs.held_out.size()));
  for (std::size_t i = 0; i < inputs.held_out.size(); ++i) {
    const auto findings =
        traced_detect(reference, reference.model(), inputs.held_out[i].source, layers);
    if (sevuldet::serve::findings_to_json(findings) != oracle[i]) {
      result.fail("traced pipeline differs from detect()");
    }
  }
  // The untraced pass is timed after the traced one, so neither pays for
  // first-touch effects the oracle pass already took.
  t0 = Clock::now();
  for (const dataset::TestCase& tc : inputs.held_out) reference.detect(tc.source);
  const double untraced_ms = ms_since(t0);
  const double flops = gemm_flops([&] {
    for (const dataset::TestCase& tc : inputs.held_out) reference.detect(tc.source);
  });
  emit_layers(result, layers, 1, flops);
  result.metric("trace.overhead_share", 1.0 - untraced_ms / layers.file_ms, "ratio");
}

}  // namespace

void run_train(const Args& args, Result& result) {
  if (args.trace) {
    traced(args, result);
  } else {
    untraced(args, result);
  }
}

int probe_train(std::uint64_t seed, int set, const std::string& out_path) {
  // Input generation stays outside every timed figure.
  const std::vector<dataset::TestCase> programs = train_programs(seed, set);
  const core::PipelineConfig config = train_config();
  std::vector<double> pre_epoch_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const PreEpoch pre = pre_epoch(programs, config);
    pre_epoch_ms.push_back(pre.corpus_ms + pre.w2v_ms);
  }
  core::SeVulDet detector(config);
  std::vector<double> speeds;
  for (int i = 0; i < kSpeedReadings; ++i) speeds.push_back(host_speed(1));
  const double cpu0 = cpu_ms(getpid());
  const Clock::time_point t0 = Clock::now();
  const core::TrainResult trained = detector.train(programs);
  const double train_ms = ms_since(t0);
  const double train_cpu_ms = cpu_ms(getpid()) - cpu0;
  for (int i = 0; i < kSpeedReadings; ++i) speeds.push_back(host_speed(1));
  detector.save(out_path);
  const ProcSample self = sample_proc(getpid());
  std::printf("%.6f %.6f %.6f %zu %.6f %.6f\n", median(pre_epoch_ms), train_ms,
              train_cpu_ms, trained.samples, self.hwm_mb, median(speeds));
  return 0;
}

}  // namespace perfbench
