// perfbench_runner: runs one workload of the repository benchmark and
// prints its result document as the last line of stdout. perfbench/run.py
// builds this binary, prepares the model, and turns the document into
// the benchmark's result line; run the runner directly only to debug.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --model FILE --cli SEVULDET
//                    --seed-tree DIR [--threads N] [--serve-threads N]
//   perfbench_runner --probe-load MODEL
//   perfbench_runner --probe-scan ROOT MODEL THREADS SECONDS
//   perfbench_runner --probe-train SEED SET OUT
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload tree_scan|daemon_oneshot|train "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --model FILE "
               "--cli SEVULDET --seed-tree DIR [--threads N] "
               "[--serve-threads N]\n"
               "       perfbench_runner --probe-load MODEL\n"
               "       perfbench_runner --probe-scan ROOT MODEL THREADS SECONDS\n"
               "       perfbench_runner --probe-train SEED SET OUT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "--probe-load" && argc == 3) return perfbench::probe_load(argv[2]);
    if (mode == "--probe-scan" && argc == 6) {
      return perfbench::probe_scan(argv[2], argv[3], std::atoi(argv[4]),
                                   std::strtod(argv[5], nullptr));
    }
    if (mode == "--probe-train" && argc == 5) {
      return perfbench::probe_train(std::strtoull(argv[2], nullptr, 10), std::atoi(argv[3]),
                                    argv[4]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner %s: %s\n", mode.c_str(), e.what());
    return 1;
  }

  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--model") {
      args.model = value;
    } else if (key == "--cli") {
      args.cli = value;
    } else if (key == "--seed-tree") {
      args.seed_tree = value;
    } else if (key == "--threads") {
      args.threads = std::atoi(value);
    } else if (key == "--serve-threads") {
      args.serve_threads = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (args.work_dir.empty() || args.model.empty() || args.seconds <= 0.0) {
    return usage();
  }

  perfbench::Result result;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "tree_scan") {
      perfbench::run_tree_scan(args, result);
    } else if (args.workload == "daemon_oneshot") {
      perfbench::run_daemon_oneshot(args, result);
    } else if (args.workload == "train") {
      perfbench::run_train(args, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
