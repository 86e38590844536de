// The three workloads of BENCHMARK.json. Each fills `result` with the
// end-to-end metrics (args.trace == false) or the per-layer metrics of
// its traced run (args.trace == true), and records every oracle
// mismatch as a failure.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_tree_scan(const Args& args, Result& result);
void run_daemon_oneshot(const Args& args, Result& result);
void run_train(const Args& args, Result& result);

/// Probes run in a fresh child process of the runner, so their timings
/// and footprints carry nothing over from the parent.
///
/// `--probe-load MODEL`: time one SeVulDet::load (the load-time GEMM
/// autotune runs once per process) and print the milliseconds.
int probe_load(const std::string& model_path);
/// `--probe-scan ROOT MODEL THREADS SECONDS`: load, one untimed warm-up
/// scan_tree, then timed scan_tree passes for SECONDS; print the median
/// files/s and CPU ms per file of the passes at reference host speed,
/// the process's peak RSS in MB, the pass count, the FNV-1a digest of
/// the pass document ("differs" when two passes disagree), the median
/// files/s as measured and the median host speed.
int probe_scan(const std::string& root, const std::string& model_path,
               int threads, double seconds);
/// `--probe-train SEED SET OUT`: time the pre-epoch work (corpus build +
/// word2vec) a few times, then SeVulDet::train on training set SET of
/// the train workload and save the model to OUT; print the median pre-epoch
/// milliseconds, train() wall and CPU milliseconds, training samples,
/// peak RSS in MB and the host speed around train().
int probe_train(std::uint64_t seed, int set, const std::string& out_path);

}  // namespace perfbench
