#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload tree_scan|daemon_oneshot|train \
        --seed N --seconds S --trace 0|1 [--threads N] [--serve-threads N]

Run from the root of a source checkout. Builds the library, the
`sevuldet` CLI and the benchmark runner from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), trains the
benchmark model once per build, runs the workload, prints a table of
every metric, and prints the result document as the last line of stdout.
Exits nonzero when an output check fails or the run cannot complete.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Seed reserved for confirming a claimed gain; never used while tuning.
HOLDOUT_SEED = 9973
MODEL_ARGS = ["--pairs", "20", "--epochs", "2", "--threads", "1"]
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; build output to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_runner", "sevuldet"],
                   check=True, stdout=sys.stderr)


def find_cli(build_dir):
    for path in sorted(build_dir.glob("sevuldet/**/cli/sevuldet")):
        if path.is_file() and os.access(path, os.X_OK):
            return path
    raise SystemExit("perfbench: built sevuldet CLI not found")


def ensure_model(build_dir, cli):
    """The CLI-config model `sevuldet selftrain` produces; retrained when
    the CLI binary is newer (training is deterministic per build)."""
    model = build_dir / "model" / "cnn-pairs20-epochs2.bin"
    if model.exists() and model.stat().st_mtime >= cli.stat().st_mtime:
        return model
    model.parent.mkdir(parents=True, exist_ok=True)
    tmp = model.with_suffix(".tmp")
    log("perfbench: training the benchmark model (once per build)")
    subprocess.run([str(cli), "selftrain", *MODEL_ARGS, "--out", str(tmp)],
                   check=True, stdout=sys.stderr)
    tmp.replace(model)
    return model


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build_dir, seed):
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "none"
    except OSError:
        rev = "none"
    return {
        "nproc": os.cpu_count(),
        "isa": {name: name in flags for name in
                ("avx2", "avx512f", "avx512_vnni", "avx_vnni")},
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "sevuldet_native": cache_value(build_dir, "SEVULDET_NATIVE"),
        "git_revision": rev,
        "source_digest": source_digest(),
        "seed": seed,
        "holdout_seed": seed == HOLDOUT_SEED,
    }


def run_workload(cmd):
    """Run the runner in its own process group; whatever it leaves behind
    (a daemon after a crash) is killed and reaped before returning."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: runner timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.time() + 10
        while time.time() < deadline and any(
                _pgid(p) == proc.pid for p in Path("/proc").iterdir() if p.name.isdigit()):
            time.sleep(0.05)
    return proc.returncode, out


def _pgid(proc_dir):
    try:
        return int((proc_dir / "stat").read_text().rsplit(")", 1)[1].split()[2])
    except (OSError, IndexError, ValueError):
        return -1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="tree_scan scan threads (default nproc/2)")
    ap.add_argument("--serve-threads", type=int, default=0,
                    help="daemon_oneshot serve --threads (default nproc/2)")
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    build_dir = build_dir if build_dir.is_absolute() else ROOT / build_dir
    # Compiler and runner temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build(build_dir)
    cli = find_cli(build_dir)
    model = ensure_model(build_dir, cli)
    work = build_dir / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    rel = lambda p: os.path.relpath(p, ROOT)  # short unix-socket paths
    cmd = [str(build_dir / "perfbench_runner"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", rel(work), "--model", rel(model),
           "--cli", rel(cli), "--seed-tree", "examples/realworld_seed",
           "--threads", str(args.threads), "--serve-threads", str(args.serve_threads)]
    code, out = run_workload(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"perfbench: runner failed (exit {code})")
    doc = json.loads(lines[-1])

    specs = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    metrics = {}
    for spec in specs:
        got = doc["metrics"].get(spec["name"])
        if got is None and args.trace:
            if spec["name"] == "error_rate":
                value = doc["failed"] / max(1, doc["attempted"])
            else:
                value = 0.0  # layer not exercised by this workload
            got = {"value": value, "unit": spec["unit"]}
        if got is None or got["unit"] != spec["unit"]:
            raise SystemExit(f"perfbench: runner metric {spec['name']} missing or mis-unit")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    extra = set(doc["metrics"]) - set(metrics)
    if extra:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(extra)}")

    fp = fingerprint(build_dir, args.seed)
    result = {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]), "metrics": metrics}
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"fingerprint": fp, "result": result, "info": doc.get("info", {}),
                    "notes": doc.get("notes", [])}, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"fingerprint={json.dumps(fp, sort_keys=True)}")
    for name, m in doc.get("info", {}).items():
        print(f"#   {name}: {m}")
    for note in doc.get("notes", []):
        print(f"# CHECK FAILED: {note}")
    for spec in specs:
        m = metrics[spec["name"]]
        print(f"{spec['name']:32s} {m['value']:>16.6g} {m['unit']:8s} ({spec['better']} is better)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: {' '.join(map(str, e.cmd))} failed (exit {e.returncode})")
