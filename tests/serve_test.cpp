// The serve daemon stack, bottom-up: frame robustness (truncated /
// corrupt / oversized frames rejected loudly, never misread), protocol
// JSON round-trips, and end-to-end daemon scans that must be
// byte-identical to in-process detect() — the property the serve-gate CI
// job enforces.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/scan.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/serve/client.hpp"
#include "sevuldet/serve/protocol.hpp"
#include "sevuldet/serve/server.hpp"
#include "sevuldet/util/binary_io.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/mini_json.hpp"
#include "sevuldet/util/socket.hpp"

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace serve = sevuldet::serve;
namespace su = sevuldet::util;
namespace mini_json = sevuldet::util::mini_json;

namespace {

// ---------------------------------------------------------------------
// Framing over a socketpair (no listener needed).

struct StreamPair {
  su::UnixStream a;
  su::UnixStream b;

  StreamPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    a = su::UnixStream(su::FdHandle(fds[0]));
    b = su::UnixStream(su::FdHandle(fds[1]));
  }
};

TEST(ServeFraming, RoundTripsPayloads) {
  StreamPair pair;
  const std::string payloads[] = {"", "x", std::string(100000, 'q'),
                                  std::string("\0\x01\xff binary", 10)};
  for (const std::string& payload : payloads) {
    pair.a.send_frame(payload);
    auto got = pair.b.recv_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(payload, *got);
  }
}

TEST(ServeFraming, CleanEofIsNullopt) {
  StreamPair pair;
  pair.a.close();
  EXPECT_EQ(std::nullopt, pair.b.recv_frame());
}

TEST(ServeFraming, RejectsBadMagic) {
  StreamPair pair;
  su::ByteWriter junk;
  junk.bytes("JUNK");
  junk.u32(4);
  junk.bytes("abcd");
  junk.u64(0);
  ::send(pair.a.fd(), junk.data().data(), junk.size(), 0);
  EXPECT_THROW(pair.b.recv_frame(), su::FrameError);
}

TEST(ServeFraming, RejectsOversizedFrame) {
  StreamPair pair;
  su::ByteWriter header;
  header.bytes(su::kFrameMagic);
  header.u32(1 << 20);  // claims 1 MiB against a 1 KiB cap
  ::send(pair.a.fd(), header.data().data(), header.size(), 0);
  EXPECT_THROW(pair.b.recv_frame(/*max_frame=*/1024), su::FrameError);
}

TEST(ServeFraming, RejectsTruncatedHeader) {
  StreamPair pair;
  ::send(pair.a.fd(), "SVD", 3, 0);  // 3 of 8 header bytes, then EOF
  pair.a.close();
  EXPECT_THROW(pair.b.recv_frame(), su::FrameError);
}

TEST(ServeFraming, RejectsTruncatedPayload) {
  StreamPair pair;
  su::ByteWriter frame;
  frame.bytes(su::kFrameMagic);
  frame.u32(100);  // promises 100 payload bytes...
  frame.bytes("short");
  ::send(pair.a.fd(), frame.data().data(), frame.size(), 0);
  pair.a.close();  // ...but hangs up after 5
  EXPECT_THROW(pair.b.recv_frame(), su::FrameError);
}

TEST(ServeFraming, RejectsChecksumMismatch) {
  StreamPair pair;
  su::ByteWriter frame;
  frame.bytes(su::kFrameMagic);
  frame.u32(4);
  frame.bytes("data");
  frame.u64(su::fnv1a("data") ^ 1);  // one bit off
  ::send(pair.a.fd(), frame.data().data(), frame.size(), 0);
  EXPECT_THROW(pair.b.recv_frame(), su::FrameError);
}

TEST(ServeFraming, RejectsCorruptPayloadByte) {
  StreamPair pair;
  su::ByteWriter frame;
  frame.bytes(su::kFrameMagic);
  frame.u32(4);
  frame.bytes("dXta");  // checksum is for "data"
  frame.u64(su::fnv1a("data"));
  ::send(pair.a.fd(), frame.data().data(), frame.size(), 0);
  EXPECT_THROW(pair.b.recv_frame(), su::FrameError);
}

TEST(ServeFraming, SendRejectsPayloadOverCap) {
  StreamPair pair;
  EXPECT_THROW(pair.a.send_frame(std::string(2048, 'x'), /*max_frame=*/1024),
               su::FrameError);
}

// ---------------------------------------------------------------------
// Protocol JSON.

TEST(ServeProtocol, RequestRoundTrips) {
  serve::Request request;
  request.op = serve::Op::Explain;
  request.id = 42;
  request.source = "int main() { return 0; }\n\"quoted\"\t";
  request.top_k = 7;
  request.deadline_ms = 1234.5;
  serve::Request parsed = serve::parse_request(serve::request_to_json(request));
  EXPECT_EQ(request.op, parsed.op);
  EXPECT_EQ(request.id, parsed.id);
  EXPECT_EQ(request.source, parsed.source);
  EXPECT_EQ(request.top_k, parsed.top_k);
  EXPECT_EQ(request.deadline_ms, parsed.deadline_ms);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), std::exception);
  EXPECT_THROW(serve::parse_request("{\"op\":\"fly\",\"id\":1}"), std::exception);
  EXPECT_THROW(serve::parse_request("{\"op\":\"scan\",\"id\":1}"),
               std::exception);  // missing source
  EXPECT_THROW(serve::parse_request(
                   "{\"op\":\"scan\",\"id\":1,\"source\":\"\",\"top_k\":-1}"),
               std::exception);
  EXPECT_THROW(
      serve::parse_request(
          "{\"op\":\"scan\",\"id\":1,\"source\":\"\",\"deadline_ms\":-5}"),
      std::exception);
}

TEST(ServeProtocol, ErrorCodesRoundTrip) {
  for (serve::ErrorCode code :
       {serve::ErrorCode::BadRequest, serve::ErrorCode::QueueFull,
        serve::ErrorCode::DeadlineExceeded, serve::ErrorCode::ShuttingDown,
        serve::ErrorCode::Internal}) {
    auto back = serve::error_code_from_name(serve::error_code_name(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(code, *back);
  }
  EXPECT_EQ(std::nullopt, serve::error_code_from_name("teapot"));
}

TEST(ServeProtocol, ErrorResponseRoundTrips) {
  serve::Response response = serve::error_response(
      9, serve::ErrorCode::DeadlineExceeded, "budget of 5ms exhausted");
  serve::Response parsed =
      serve::parse_response(serve::response_to_json(response));
  EXPECT_EQ(9, parsed.id);
  EXPECT_FALSE(parsed.ok);
  ASSERT_TRUE(parsed.error.has_value());
  EXPECT_EQ(serve::ErrorCode::DeadlineExceeded, parsed.error->code);
  EXPECT_EQ("budget of 5ms exhausted", parsed.error->message);
}

/// Findings with awkward floats and every optional field populated must
/// survive JSON exactly: serialize(parse(serialize(x))) == serialize(x).
TEST(ServeProtocol, FindingsRoundTripByteExact) {
  sc::Finding finding;
  finding.function = "process";
  finding.line = 17;
  finding.category = sevuldet::slicer::TokenCategory::PointerUsage;
  finding.token = "buf";
  finding.probability = 0.123456789f;
  finding.top_tokens = {{"var0", 1.0f}, {"strcpy", 0.33333334f}};
  finding.attributions.push_back({"var0", "data", "process", 12, 0.0625f});
  finding.attributions.push_back({"fun1", "helper", "process", 3, 1e-7f});
  finding.spatial_attention = {0.1f, 0.9f, 0.0001f};
  sc::Finding plain;
  plain.function = "main";
  plain.line = 1;
  plain.category = sevuldet::slicer::TokenCategory::FunctionCall;
  plain.token = "gets";
  plain.probability = 0.75f;

  const std::string json = serve::findings_to_json({finding, plain});
  const std::vector<sc::Finding> parsed = serve::findings_from_json_array(json);
  ASSERT_EQ(2u, parsed.size());
  EXPECT_EQ(json, serve::findings_to_json(parsed));
}

TEST(ServeProtocol, ScanTreeRequestRoundTrips) {
  serve::Request request;
  request.op = serve::Op::ScanTree;
  request.id = 11;
  request.root = "/some/tree with spaces";
  request.top_k = 4;
  request.deadline_ms = 90000.0;
  serve::Request parsed = serve::parse_request(serve::request_to_json(request));
  EXPECT_EQ(serve::Op::ScanTree, parsed.op);
  EXPECT_EQ(11, parsed.id);
  EXPECT_EQ(request.root, parsed.root);
  EXPECT_EQ(4, parsed.top_k);
  EXPECT_EQ(90000.0, parsed.deadline_ms);
  // A tree scan without a root is malformed, like a scan without source.
  EXPECT_THROW(serve::parse_request("{\"op\":\"scan-tree\",\"id\":1}"),
               std::exception);
}

/// Tree results with every stats field populated (awkward rates, failed
/// files, fallback findings) must survive JSON losslessly:
/// serialize(parse(serialize(x))) == serialize(x). This is what makes a
/// daemon tree scan byte-identical to an in-process one regardless of
/// how the wire re-emits the payload.
TEST(ServeProtocol, TreeScanJsonRoundTripsLossless) {
  sc::TreeScanResult tree;
  tree.root = "src/\"quoted\"";
  tree.files.resize(2);
  tree.files[0].path = "a.c";
  tree.files[0].stats.preprocessed = true;
  tree.files[0].stats.parse_clean = false;
  tree.files[0].stats.chunks_total = 3;
  tree.files[0].stats.chunks_recovered = 2;
  tree.files[0].stats.lost_regions = 1;
  tree.files[0].stats.lines_total = 40;
  tree.files[0].stats.lines_lost = 5;
  tree.files[0].stats.fallback_gadgets = 2;
  tree.files[0].stats.fallback_findings = 1;
  tree.files[0].stats.findings_dropped_include = 1;
  tree.files[0].stats.preprocess.includes_resolved = 1;
  tree.files[0].stats.preprocess.includes_unresolved = 2;
  tree.files[0].stats.preprocess.include_cycles = 1;
  tree.files[0].stats.preprocess.macros_defined = 4;
  tree.files[0].stats.preprocess.macro_expansions = 7;
  tree.files[0].stats.preprocess.conditionals = 3;
  tree.files[0].stats.preprocess.unresolved_conditionals = 1;
  tree.files[0].stats.preprocess.lines_dropped = 6;
  sc::Finding finding;
  finding.function = "f";
  finding.line = 17;
  finding.category = sevuldet::slicer::TokenCategory::FunctionCall;
  finding.token = "strcpy";
  finding.probability = 0.6666667f;
  tree.files[0].findings.push_back(finding);
  tree.files[1].path = "b.c";
  tree.files[1].ok = false;
  tree.files[1].error = "mmap failed: \"denied\"";
  tree.stats.files = 2;
  tree.stats.files_failed = 1;
  tree.stats.files_recovered = 1;
  tree.stats.bytes = 1234567890123LL;
  tree.stats.findings = 1;
  tree.stats.fallback_findings = 1;
  tree.stats.lines_total = 40;
  tree.stats.lines_lost = 5;
  tree.stats.includes_resolved = 1;
  tree.stats.includes_unresolved = 2;
  tree.stats.macro_expansions = 7;
  tree.stats.conditionals = 3;
  tree.stats.unresolved_conditionals = 1;
  tree.stats.parse_drop_rate = 0.125;
  tree.stats.preprocess_drop_rate = 0.5;

  const std::string json = serve::tree_scan_to_json(tree);
  const sc::TreeScanResult parsed = serve::tree_scan_from_json(json);
  EXPECT_EQ(json, serve::tree_scan_to_json(parsed));
  EXPECT_EQ("a.c", parsed.files[0].path);
  EXPECT_FALSE(parsed.files[1].ok);
  EXPECT_EQ(1234567890123LL, parsed.stats.bytes);
}

TEST(ServeProtocol, StatusResponseCarriesRawObject) {
  serve::Response response =
      serve::status_response(3, "{\"queue\":{\"depth\":0}}");
  serve::Response parsed =
      serve::parse_response(serve::response_to_json(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ("{\"queue\":{\"depth\":0}}", parsed.status_json);
}

// ---------------------------------------------------------------------
// Trained fixture shared by the daemon suites.

sc::PipelineConfig tiny_pipeline_config() {
  sc::PipelineConfig config;
  config.model.embed_dim = 12;
  config.model.conv_channels = 8;
  config.model.attn_dim = 8;
  config.model.dense1 = 24;
  config.model.dense2 = 8;
  config.train.epochs = 3;
  config.train.lr = 0.002f;
  config.word2vec.epochs = 2;
  return config;
}

struct TrainedFixture {
  sc::SeVulDet detector;
  std::string vulnerable_source;

  TrainedFixture() : detector(tiny_pipeline_config()) {
    sd::SardConfig config;
    config.pairs_per_category = 6;
    config.long_fraction = 0.0;
    config.seed = 23;
    auto cases = sd::generate_sard_like(config);
    detector.train(cases);
    for (const auto& tc : cases) {
      if (!tc.vulnerable) continue;
      if (!detector.detect(tc.source).empty()) {
        vulnerable_source = tc.source;
        break;
      }
    }
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

std::string test_socket_path(const char* tag) {
  return "/tmp/sevuldet_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A Server running on its own thread; joins (after a drain) at scope
/// exit. Waits for the socket to be bound before returning.
struct RunningServer {
  serve::Server server;
  std::thread thread;

  explicit RunningServer(serve::ServeOptions options)
      : server(fixture().detector, std::move(options)) {
    thread = std::thread([this] { server.run(); });
    for (int i = 0; i < 500; ++i) {
      if (::access(server.options().socket_path.c_str(), F_OK) == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.request_shutdown();
    thread.join();
    throw std::runtime_error("daemon socket never appeared");
  }

  ~RunningServer() {
    server.request_shutdown();
    if (thread.joinable()) thread.join();
  }
};

serve::ServeOptions test_options(const char* tag) {
  serve::ServeOptions options;
  options.socket_path = test_socket_path(tag);
  options.threads = 2;
  options.accept_timeout_ms = 20;  // quick shutdown in tests
  return options;
}

// ---------------------------------------------------------------------
// Daemon end-to-end.

TEST(ServeDaemon, ScanMatchesInProcessByteIdentical) {
  auto& f = fixture();
  RunningServer running(test_options("scan"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());

  const std::string expected = serve::findings_to_json(
      f.detector.detect(f.vulnerable_source));
  const std::string got =
      serve::findings_to_json(client->scan(f.vulnerable_source));
  EXPECT_EQ(expected, got);
}

TEST(ServeDaemon, ExplainMatchesInProcessByteIdentical) {
  auto& f = fixture();
  RunningServer running(test_options("explain"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());

  sc::DetectOptions options;
  options.explain = true;
  options.top_k = 5;
  const std::string expected =
      serve::findings_to_json(f.detector.detect(f.vulnerable_source, options));
  const std::string got = serve::findings_to_json(
      client->scan(f.vulnerable_source, /*top_k=*/5, /*explain=*/true));
  EXPECT_EQ(expected, got);
  EXPECT_NE(std::string::npos, got.find("\"attributions\":[{"))
      << "explain findings should carry attributions";
}

TEST(ServeDaemon, ConcurrentClientsAllByteIdentical) {
  auto& f = fixture();
  serve::ServeOptions options = test_options("concurrent");
  options.threads = 4;
  RunningServer running(std::move(options));
  const std::string expected =
      serve::findings_to_json(f.detector.detect(f.vulnerable_source));

  constexpr int kClients = 6;
  constexpr int kScansEach = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client =
          serve::Client::connect(running.server.options().socket_path);
      ASSERT_TRUE(client.has_value());
      for (int s = 0; s < kScansEach; ++s) {
        if (serve::findings_to_json(client->scan(f.vulnerable_source)) !=
            expected) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(0, mismatches.load());
}

TEST(ServeDaemon, ZeroDeadlineYieldsTypedError) {
  auto& f = fixture();
  RunningServer running(test_options("deadline"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  try {
    client->scan(f.vulnerable_source, 10, false, /*deadline_ms=*/0.0);
    FAIL() << "deadline_ms=0 should be rejected";
  } catch (const serve::DaemonError& e) {
    EXPECT_EQ(serve::ErrorCode::DeadlineExceeded, e.code());
  }
  // The connection survives a typed error: the next scan works.
  EXPECT_EQ(serve::findings_to_json(f.detector.detect(f.vulnerable_source)),
            serve::findings_to_json(client->scan(f.vulnerable_source)));
}

TEST(ServeDaemon, MalformedJsonYieldsBadRequest) {
  RunningServer running(test_options("badjson"));
  auto stream =
      su::UnixStream::connect(running.server.options().socket_path);
  ASSERT_TRUE(stream.has_value());
  stream->send_frame("this is not json");
  auto payload = stream->recv_frame();
  ASSERT_TRUE(payload.has_value());
  serve::Response response = serve::parse_response(*payload);
  EXPECT_FALSE(response.ok);
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(serve::ErrorCode::BadRequest, response.error->code);
}

TEST(ServeDaemon, CorruptFrameYieldsBadRequestAndCloses) {
  RunningServer running(test_options("badframe"));
  auto stream =
      su::UnixStream::connect(running.server.options().socket_path);
  ASSERT_TRUE(stream.has_value());
  su::ByteWriter frame;
  frame.bytes(su::kFrameMagic);
  frame.u32(4);
  frame.bytes("data");
  frame.u64(su::fnv1a("data") ^ 1);  // corrupt checksum
  ::send(stream->fd(), frame.data().data(), frame.size(), 0);
  auto payload = stream->recv_frame();
  ASSERT_TRUE(payload.has_value());
  serve::Response response = serve::parse_response(*payload);
  EXPECT_FALSE(response.ok);
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(serve::ErrorCode::BadRequest, response.error->code);
  EXPECT_EQ(std::nullopt, stream->recv_frame());  // daemon closed the stream
}

TEST(ServeDaemon, ReportStatusExposesCounters) {
  auto& f = fixture();
  RunningServer running(test_options("status"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  client->scan(f.vulnerable_source);
  const std::string status = client->report_status();
  mini_json::Value doc = mini_json::parse(status);
  EXPECT_EQ(1.0, doc.at("requests").at("scan").number);
  EXPECT_GT(doc.at("arena_high_water_bytes").number, 0.0);
  EXPECT_FALSE(doc.has("batcher"));
  EXPECT_EQ(2.0, doc.at("threads").number);
  EXPECT_GE(doc.at("connections").at("active").number, 1.0);
}

/// Shutdown is a drain: the ack arrives, run() returns (joining every
/// server thread), the socket file is unlinked, and the post-run
/// metrics snapshot is complete — serve counters and request histograms
/// recorded on worker/connection threads are all visible.
TEST(ServeDaemon, ShutdownDrainsAndFoldsMetrics) {
  auto& f = fixture();
  sevuldet::util::metrics::reset();
  sevuldet::util::metrics::set_enabled(true);

  serve::ServeOptions options = test_options("shutdown");
  const std::string socket_path = options.socket_path;
  serve::Server server(f.detector, std::move(options));
  std::thread runner([&] { server.run(); });
  for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto client = serve::Client::connect(socket_path);
  ASSERT_TRUE(client.has_value());
  const int kScans = 3;
  for (int i = 0; i < kScans; ++i) client->scan(f.vulnerable_source);
  client->shutdown();
  runner.join();  // returns only after the drain

  EXPECT_NE(0, ::access(socket_path.c_str(), F_OK))
      << "socket file should be unlinked after shutdown";
  EXPECT_EQ(std::nullopt, serve::Client::connect(socket_path))
      << "no daemon should be listening after shutdown";

  auto snapshot = sevuldet::util::metrics::snapshot();
  sevuldet::util::metrics::set_enabled(false);
  EXPECT_EQ(kScans + 1, snapshot.counters.at("serve.requests"));
  ASSERT_TRUE(snapshot.histograms.count("serve.request_ms"));
  EXPECT_EQ(kScans + 1, snapshot.histograms.at("serve.request_ms").count);
  // Spans and counters recorded on worker threads (serve.queue,
  // serve.infer, the clones' predict_batch) all folded into the final
  // snapshot.
  for (const char* name : {"span.serve.accept", "span.serve.queue",
                           "span.serve.infer", "span.serve.reply"}) {
    EXPECT_TRUE(snapshot.histograms.count(name)) << name;
  }
  EXPECT_FALSE(snapshot.histograms.count("span.serve.batch"));
  EXPECT_GE(snapshot.counters.at("nn.predict_batch.gadgets"), 1);
}

/// `/proc/self/maps` line count and VmSize (kB) of this process.
std::pair<long, long> maps_and_vmsize_kb() {
  long maps = 0;
  std::ifstream maps_in("/proc/self/maps");
  for (std::string line; std::getline(maps_in, line);) ++maps;
  long vmsize_kb = 0;
  std::ifstream status_in("/proc/self/status");
  for (std::string line; std::getline(status_in, line);) {
    if (line.rfind("VmSize:", 0) == 0) vmsize_kb = std::stol(line.substr(7));
  }
  return {maps, vmsize_kb};
}

/// One-shot clients (the `scan --daemon` pattern) must not grow the
/// daemon's footprint: each finished connection's thread is joined by
/// the accept loop, so its stack and guard page are unmapped. Without
/// reaping, every connection leaves 2 maps lines and ~8 MB of VmSize
/// (+600 lines and +2.4 GB here). The bounds leave room for what does
/// not scale with the connection count: the last connections' stacks
/// and a few glibc malloc arenas (2 lines and 64 MB of reserved address
/// space each) when connection threads briefly overlap.
TEST(ServeDaemon, OneShotConnectionsDoNotGrowFootprint) {
  auto& f = fixture();
  RunningServer running(test_options("oneshot"));
  const std::string& socket_path = running.server.options().socket_path;
  auto one_shot_scans = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto client = serve::Client::connect(socket_path);
      ASSERT_TRUE(client.has_value());
      client->scan(f.vulnerable_source);
    }
  };
  one_shot_scans(100);  // warm: worker scratch, allocator arenas
  const auto [warm_maps, warm_vmsize_kb] = maps_and_vmsize_kb();
  one_shot_scans(300);
  const auto [end_maps, end_vmsize_kb] = maps_and_vmsize_kb();
  EXPECT_LT(end_maps - warm_maps, 20)
      << "maps " << warm_maps << " -> " << end_maps;
  EXPECT_LT(end_vmsize_kb - warm_vmsize_kb, 256 * 1024)
      << "VmSize kB " << warm_vmsize_kb << " -> " << end_vmsize_kb;
}

/// A daemon directory scan must produce the same bytes as an in-process
/// core::scan_tree — findings, per-file stats, and drop counters — even
/// though the tree includes a file only recovery can handle and an
/// unresolvable include. This is the `sevuldet scan DIR --daemon` parity
/// the CI serve-gate job relies on.
TEST(ServeDaemon, TreeScanMatchesInProcessByteIdentical) {
  namespace fs = std::filesystem;
  auto& f = fixture();
  const fs::path root = fs::temp_directory_path() /
                        ("sevuldet_serve_tree_" + std::to_string(::getpid()));
  fs::create_directories(root / "sub");
  std::ofstream(root / "vuln.c") << f.vulnerable_source;
  std::ofstream(root / "helpers.h")
      << "#define GREET \"hi\"\nint helper(int x);\n";
  std::ofstream(root / "sub" / "uses.c")
      << "#include \"helpers.h\"\n#include \"missing.h\"\n"
         "#include <string.h>\n"
         "void use(char *dst) { strcpy(dst, GREET); }\n";
  std::ofstream(root / "sub" / "legacy.c")
      << "int old_style(a) int a; { return a + 1; }\n";

  RunningServer running(test_options("tree"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());

  sc::ScanOptions options;
  options.threads = 1;
  const sc::TreeScanResult local =
      sc::scan_tree(f.detector, root.string(), options);
  const sc::TreeScanResult remote = client->scan_tree(root.string());
  EXPECT_EQ(serve::tree_scan_to_json(local), serve::tree_scan_to_json(remote));
  EXPECT_EQ(4, remote.stats.files);
  EXPECT_GE(remote.stats.files_recovered, 1);
  EXPECT_GE(remote.stats.includes_unresolved, 1);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------
// Telemetry plane end-to-end (ServeOptions::telemetry on).

serve::ServeOptions telemetry_options(const char* tag) {
  serve::ServeOptions options = test_options(tag);
  options.telemetry = true;
  options.telemetry_interval_ms = 50.0;  // fast ring fill for tests
  return options;
}

TEST(ServeTelemetry, MetricsOpServesJsonAndPrometheus) {
  auto& f = fixture();
  RunningServer running(telemetry_options("metrics"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  client->scan(f.vulnerable_source);

  mini_json::Value doc = mini_json::parse(client->metrics("json"));
  EXPECT_EQ("json", doc.at("format").str);
  EXPECT_GE(doc.at("metrics").at("counters").at("serve.requests").number, 1.0);
  EXPECT_TRUE(doc.at("metrics").at("gauges").has("proc.rss_bytes"));

  mini_json::Value prom = mini_json::parse(client->metrics("prometheus"));
  EXPECT_EQ("prometheus", prom.at("format").str);
  const std::string& text = prom.at("exposition").str;
  EXPECT_NE(std::string::npos,
            text.find("# TYPE sevuldet_serve_requests counter"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_serve_request_ms_bucket"));
}

/// The dispatched GEMM ISA is visible on every status surface, and the
/// token-attention dedup ratio can be read off two counters.
TEST(ServeTelemetry, ExportsKernelIsaAndAttentionDedupCounters) {
  auto& f = fixture();
  RunningServer running(telemetry_options("kernel-isa"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  client->scan(f.vulnerable_source);

  const std::string isa = sevuldet::nn::kernels::kernel_isa();
  mini_json::Value status = mini_json::parse(client->report_status());
  EXPECT_EQ(isa, status.at("kernel_isa").str);
  mini_json::Value doc = mini_json::parse(client->metrics("json"));
  const mini_json::Value& metrics = doc.at("metrics");
  EXPECT_EQ(isa, metrics.at("labels").at("nn.kernel_isa").str);
  const double token_rows =
      metrics.at("counters").at("nn.attn.token_rows").number;
  const double scored_rows =
      metrics.at("counters").at("nn.attn.scored_rows").number;
  EXPECT_GT(scored_rows, 0.0);
  EXPECT_GE(token_rows, scored_rows);
}

/// The resource ring fills on the snapshotter's cadence; the history
/// field returns the newest samples oldest-first with a cumulative
/// request counter a client can difference into QPS.
TEST(ServeTelemetry, HistoryReturnsRingSamples) {
  auto& f = fixture();
  RunningServer running(telemetry_options("history"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  client->scan(f.vulnerable_source);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  mini_json::Value doc = mini_json::parse(client->metrics("json", 10));
  const auto& history = doc.at("history").array;
  ASSERT_GE(history.size(), 2u);
  double previous = 0.0;
  for (const auto& sample : history) {
    EXPECT_GE(sample.at("unix_seconds").number, previous);
    previous = sample.at("unix_seconds").number;
    EXPECT_GT(sample.at("rss_bytes").number, 0.0);
  }
  EXPECT_GE(history.back().at("requests").number, 1.0);
}

TEST(ServeTelemetry, TraceIdPropagatesAndIsMintedWhenAbsent) {
  auto& f = fixture();
  RunningServer running(telemetry_options("traceid"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());

  // Client-chosen IDs echo back verbatim.
  serve::Request request;
  request.op = serve::Op::Scan;
  request.source = f.vulnerable_source;
  request.trace_id = "my-trace-42";
  serve::Response response = client->roundtrip(std::move(request));
  EXPECT_EQ("my-trace-42", response.trace_id);

  // Without one, the telemetry daemon mints a "<pid-hex>-<seq>" ID.
  serve::Request bare;
  bare.op = serve::Op::Scan;
  bare.source = f.vulnerable_source;
  serve::Response minted = client->roundtrip(std::move(bare));
  EXPECT_FALSE(minted.trace_id.empty());
  EXPECT_NE(std::string::npos, minted.trace_id.find('-'));
}

/// One finished request -> one schema-v1 access-log line carrying the
/// request's trace_id; the log is complete once run() drains.
TEST(ServeTelemetry, AccessLogRecordsEveryRequest) {
  namespace fs = std::filesystem;
  auto& f = fixture();
  serve::ServeOptions options = telemetry_options("accesslog");
  const fs::path log_path =
      fs::temp_directory_path() /
      ("sevuldet_access_" + std::to_string(::getpid()) + ".log");
  fs::remove(log_path);
  options.access_log_path = log_path.string();
  {
    RunningServer running(std::move(options));
    auto client = serve::Client::connect(running.server.options().socket_path);
    ASSERT_TRUE(client.has_value());
    serve::Request request;
    request.op = serve::Op::Scan;
    request.source = f.vulnerable_source;
    request.trace_id = "logged-1";
    client->roundtrip(std::move(request));
    client->report_status();
  }  // drain flushes the access log
  std::ifstream in(log_path);
  std::string line;
  bool saw_scan = false, saw_status = false;
  while (std::getline(in, line)) {
    mini_json::Value record = mini_json::parse(line);
    EXPECT_EQ(1.0, record.at("schema_version").number);
    EXPECT_FALSE(record.at("trace_id").str.empty());
    if (record.at("op").str == "scan") {
      saw_scan = true;
      EXPECT_EQ("logged-1", record.at("trace_id").str);
      EXPECT_GE(record.at("batch_size").number, 1.0);
      EXPECT_GT(record.at("infer_ms").number, 0.0);
      EXPECT_EQ("fp32", record.at("precision").str);
    }
    if (record.at("op").str == "report-status") saw_status = true;
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_status);
  fs::remove(log_path);
}

/// Tail-based slow tracing is data-plane only: with the threshold at 0
/// every scan is "slow", but metrics scrapes, status probes, and the
/// shutdown ack must not produce trace files — the CI obs-gate asserts
/// exactly one file after exactly one scan.
TEST(ServeTelemetry, SlowTraceCapturesDataPlaneOnly) {
  namespace fs = std::filesystem;
  auto& f = fixture();
  serve::ServeOptions options = telemetry_options("slowtrace");
  const fs::path trace_dir =
      fs::temp_directory_path() /
      ("sevuldet_slow_" + std::to_string(::getpid()));
  fs::remove_all(trace_dir);
  fs::create_directories(trace_dir);
  options.slow_trace_ms = 0.0;
  options.slow_trace_dir = trace_dir.string();
  {
    RunningServer running(std::move(options));
    auto client = serve::Client::connect(running.server.options().socket_path);
    ASSERT_TRUE(client.has_value());
    serve::Request request;
    request.op = serve::Op::Scan;
    request.source = f.vulnerable_source;
    request.trace_id = "slow-probe";
    client->roundtrip(std::move(request));
    client->metrics("json");       // control plane: no trace file
    client->report_status();       // control plane: no trace file
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(trace_dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(1u, files.size()) << "exactly one slow trace for one scan";
  std::ifstream in(files[0]);
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_NE(std::string::npos, body.str().find("\"slow-probe\""));
  EXPECT_NE(std::string::npos, body.str().find("traceEvents"));
  fs::remove_all(trace_dir);
}

/// Telemetry must not perturb results: scans through a telemetry-on
/// daemon stay byte-identical to in-process detect().
TEST(ServeTelemetry, ScanStaysByteIdenticalWithTelemetryOn) {
  auto& f = fixture();
  RunningServer running(telemetry_options("teleident"));
  auto client = serve::Client::connect(running.server.options().socket_path);
  ASSERT_TRUE(client.has_value());
  const std::string expected =
      serve::findings_to_json(f.detector.detect(f.vulnerable_source));
  EXPECT_EQ(expected, serve::findings_to_json(client->scan(
                          f.vulnerable_source, 10, false, -1.0, 60000,
                          "ident-check")));
}

TEST(ServeDaemon, RejectsOversizedRequestFrame) {
  RunningServer running(test_options("oversize"));
  auto stream =
      su::UnixStream::connect(running.server.options().socket_path);
  ASSERT_TRUE(stream.has_value());
  // A frame header promising more than the daemon's cap: the daemon
  // replies with a typed bad_request and closes, instead of allocating.
  su::ByteWriter header;
  header.bytes(su::kFrameMagic);
  header.u32(64 << 20);  // 64 MiB > 16 MiB default cap
  ::send(stream->fd(), header.data().data(), header.size(), 0);
  auto payload = stream->recv_frame();
  ASSERT_TRUE(payload.has_value());
  serve::Response response = serve::parse_response(*payload);
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(serve::ErrorCode::BadRequest, response.error->code);
}

}  // namespace
