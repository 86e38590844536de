// End-to-end integration tests: source programs -> gadgets -> training ->
// detection, plus model persistence. Kept deliberately small so the whole
// suite stays fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/scan.hpp"
#include "sevuldet/dataset/kfold.hpp"
#include "sevuldet/dataset/sard_generator.hpp"

namespace fs = std::filesystem;
namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;

namespace {

sc::PipelineConfig tiny_pipeline_config() {
  sc::PipelineConfig config;
  config.model.embed_dim = 12;
  config.model.conv_channels = 8;
  config.model.attn_dim = 8;
  config.model.dense1 = 24;
  config.model.dense2 = 8;
  config.train.epochs = 5;
  config.train.lr = 0.002f;
  config.word2vec.epochs = 2;
  return config;
}

std::vector<sd::TestCase> tiny_cases() {
  sd::SardConfig config;
  config.pairs_per_category = 8;
  config.long_fraction = 0.0;  // keep sequences short for test speed
  config.seed = 11;
  return sd::generate_sard_like(config);
}

}  // namespace

TEST(Pipeline, TrainsAndBeatsChance) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  auto result = detector.train(cases);
  EXPECT_TRUE(detector.trained());
  ASSERT_EQ(result.epoch_losses.size(), 5u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(Pipeline, DetectFindsPlantedFlaw) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  // Detect on vulnerable programs drawn from the training distribution —
  // at minimum the detector must flag flaws it has trained on.
  std::vector<sc::Finding> findings;
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    auto found = detector.detect(tc.source);
    findings.insert(findings.end(), found.begin(), found.end());
    if (!findings.empty()) break;
  }
  // The detector should flag something in the vulnerable program...
  ASSERT_FALSE(findings.empty());
  EXPECT_GT(findings[0].probability, detector.config().model.threshold);
  EXPECT_FALSE(findings[0].function.empty());
  EXPECT_GT(findings[0].line, 0);
  // ...and attach attention explanations.
  EXPECT_FALSE(findings[0].top_tokens.empty());
  EXPECT_FLOAT_EQ(findings[0].top_tokens[0].second, 1.0f);  // normalized to max
}

TEST(Pipeline, DetectBeforeTrainThrows) {
  sc::SeVulDet detector(tiny_pipeline_config());
  EXPECT_THROW(detector.detect("void f() { }"), std::logic_error);
}

TEST(Pipeline, ScanBeforeTrainThrows) {
  // Every scan entry point refuses an untrained detector up front, even
  // where it would score nothing: a missing file (otherwise a failed
  // FileScanResult) and an empty tree (otherwise an empty result).
  const fs::path dir = fs::temp_directory_path() / "sevuldet_untrained_scan";
  fs::create_directories(dir);
  sc::SeVulDet detector(tiny_pipeline_config());
  EXPECT_THROW(sc::scan_source(detector, "f.c", "void f() { }"),
               std::logic_error);
  EXPECT_THROW(sc::scan_file(detector, (dir / "missing.c").string()),
               std::logic_error);
  EXPECT_THROW(sc::scan_tree(detector, dir.string()), std::logic_error);
  fs::remove_all(dir);
}

TEST(Pipeline, SaveLoadRoundTrip) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  const std::string path = "/tmp/sevuldet_test_model.txt";
  detector.save(path);

  sc::SeVulDet restored(tiny_pipeline_config());
  restored.load(path);
  std::remove(path.c_str());

  // Identical predictions on identical input.
  std::vector<int> probe = {2, 3, 4, 5, 6, 7, 8};
  EXPECT_FLOAT_EQ(detector.predict(probe), restored.predict(probe));
  EXPECT_EQ(detector.vocab().size(), restored.vocab().size());
}

// A reloaded detector must reproduce the original's detection findings
// exactly — lines, probabilities, and attention explanations.
TEST(Pipeline, FindingsIdenticalAfterReload) {
  auto cases = tiny_cases();
  sc::PipelineConfig config = tiny_pipeline_config();
  config.model.threshold = 0.3f;  // low bar so the scan yields findings
  sc::SeVulDet detector(config);
  detector.train(cases);

  std::string source;
  std::vector<sc::Finding> expected;
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    expected = detector.detect(tc.source);
    if (!expected.empty()) {
      source = tc.source;
      break;
    }
  }
  ASSERT_FALSE(expected.empty());

  const std::string path = ::testing::TempDir() + "reload_findings_model.bin";
  detector.save(path);
  sc::SeVulDet restored(config);
  restored.load(path);
  std::remove(path.c_str());

  const auto actual = restored.detect(source);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].function, expected[i].function);
    EXPECT_EQ(actual[i].line, expected[i].line);
    EXPECT_EQ(actual[i].category, expected[i].category);
    EXPECT_EQ(actual[i].token, expected[i].token);
    EXPECT_FLOAT_EQ(actual[i].probability, expected[i].probability);
    EXPECT_EQ(actual[i].top_tokens, expected[i].top_tokens);
  }
}

// The legacy v1 text format must stay loadable, and load identically.
TEST(Pipeline, LoadsLegacyV1TextFormat) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  const std::string path = ::testing::TempDir() + "legacy_v1_model.txt";
  detector.save_text_v1(path);
  sc::SeVulDet restored(tiny_pipeline_config());
  restored.load(path);
  std::remove(path.c_str());

  std::vector<int> probe = {2, 3, 4, 5, 6, 7, 8};
  EXPECT_FLOAT_EQ(detector.predict(probe), restored.predict(probe));
  EXPECT_EQ(detector.vocab().size(), restored.vocab().size());
}

TEST(Pipeline, LoadRejectsGarbage) {
  const std::string path = "/tmp/sevuldet_test_garbage.txt";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a model\n", f);
    std::fclose(f);
  }
  sc::SeVulDet detector(tiny_pipeline_config());
  EXPECT_THROW(detector.load(path), std::runtime_error);
  std::remove(path.c_str());
}

// Truncated or bit-flipped model files of either format must throw, not
// load a silently NUL-padded vocabulary or half-written weights.
TEST(Pipeline, LoadRejectsTruncatedAndCorruptFiles) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  const std::string v2_path = ::testing::TempDir() + "trunc_model.bin";
  const std::string v1_path = ::testing::TempDir() + "trunc_model.txt";
  detector.save(v2_path);
  detector.save_text_v1(v1_path);

  auto read_all = [](const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
  };
  auto write_all = [](const std::string& path, const std::string& bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };

  const std::string v2_bytes = read_all(v2_path);
  const std::string v1_bytes = read_all(v1_path);
  const std::string probe_path = ::testing::TempDir() + "probe_model.bin";

  // v2: cut at several depths (header, mid-payload, missing checksum).
  for (std::size_t keep :
       {std::size_t{10}, v2_bytes.size() / 2, v2_bytes.size() - 4}) {
    write_all(probe_path, v2_bytes.substr(0, keep));
    sc::SeVulDet probe(tiny_pipeline_config());
    EXPECT_THROW(probe.load(probe_path), std::runtime_error) << "kept " << keep;
  }
  // v2: single corrupt byte mid-payload fails the checksum.
  {
    std::string corrupt = v2_bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    write_all(probe_path, corrupt);
    sc::SeVulDet probe(tiny_pipeline_config());
    EXPECT_THROW(probe.load(probe_path), std::runtime_error);
  }
  // v1: truncating inside the vocabulary blob must throw (this was the
  // silent-NUL-padding bug), as must truncating the parameter floats.
  {
    const std::size_t vocab_cut = v1_bytes.find('\n', v1_bytes.find("vocab")) + 8;
    ASSERT_LT(vocab_cut, v1_bytes.size());
    write_all(probe_path, v1_bytes.substr(0, vocab_cut));
    sc::SeVulDet probe(tiny_pipeline_config());
    EXPECT_THROW(probe.load(probe_path), std::runtime_error);

    write_all(probe_path, v1_bytes.substr(0, v1_bytes.size() / 2));
    sc::SeVulDet probe2(tiny_pipeline_config());
    EXPECT_THROW(probe2.load(probe_path), std::runtime_error);
  }

  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
  std::remove(probe_path.c_str());
}

TEST(Trainer, CategoryFilter) {
  auto cases = tiny_cases();
  auto corpus = sd::build_corpus(cases);
  sd::encode_corpus(corpus);
  auto all = sc::all_sample_refs(corpus);
  auto fc = sc::filter_category(all, sevuldet::slicer::TokenCategory::FunctionCall);
  EXPECT_FALSE(fc.empty());
  EXPECT_LT(fc.size(), all.size());
  for (const auto* s : fc) {
    EXPECT_EQ(s->category, sevuldet::slicer::TokenCategory::FunctionCall);
  }
}

TEST(Trainer, EvaluateCountsMatchTestSet) {
  auto cases = tiny_cases();
  auto corpus = sd::build_corpus(cases);
  sd::encode_corpus(corpus);
  auto splits = sd::k_fold_splits(corpus.samples.size(), 5, 1);

  sc::PipelineConfig cfg = tiny_pipeline_config();
  sc::SeVulDet detector(cfg);
  detector.train_on_corpus(corpus, sc::sample_refs(corpus, splits[0].train));
  auto test_refs = sc::sample_refs(corpus, splits[0].test);
  auto confusion = sc::evaluate_detector(detector.model(), test_refs);
  EXPECT_EQ(confusion.total(), static_cast<long long>(test_refs.size()));
}

// Registry-refactor pin: the default backend is still the CNN, its name
// and its on-disk format are unchanged, and saving the same trained
// detector twice is byte-identical (deterministic v2 frames — the file
// bytes a pre-registry build produced for this config). The gat backend
// writes v3 frames; only non-default backends pay the new header.
TEST(Pipeline, DefaultBackendIsCnnWithByteStableV2Files) {
  sc::PipelineConfig config = tiny_pipeline_config();
  EXPECT_EQ(config.backend, "cnn");

  auto cases = tiny_cases();
  sc::SeVulDet detector(config);
  detector.train(cases);
  EXPECT_EQ(detector.model().name(), "SEVulDet(CNN-MultiATT)");

  const std::string a = ::testing::TempDir() + "cnn_pin_a.bin";
  const std::string b = ::testing::TempDir() + "cnn_pin_b.bin";
  detector.save(a);
  detector.save(b);

  auto read_all = [](const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
  };
  const std::string bytes_a = read_all(a);
  const std::string bytes_b = read_all(b);
  std::remove(a.c_str());
  std::remove(b.c_str());

  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a.substr(0, 18), "SEVULDET-MODEL v2\n");
  EXPECT_EQ(bytes_a, bytes_b);
}
