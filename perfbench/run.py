#!/usr/bin/env python3
"""Outside-in benchmark of BB-Align: build, run one workload, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pair_cold --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the bba library from src/ plus the benchmark program) in
an optimized tree under $CARGO_TARGET_DIR, or .bench_build when it is not
set, then runs the workload in its own process. Standard output ends with
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the workload's end-to-end metrics; with --trace 1
they are the per-layer metrics, and the span log is written next to the
build tree. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pair_cold", "fleet_stream", "fleet_churn")
DEFAULT_SEED = 1
# set-up is measured in this many fresh --setup-only processes
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(d), "perfbench")


def build(out):
    """Configure and build the Release benchmark; returns the binary path."""
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            raise RuntimeError(f"refusing a sanitizer build ({var})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def host_cpus():
    try:
        r = subprocess.run(["nproc"], capture_output=True, text=True,
                           timeout=10)
        return int(r.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return os.cpu_count() or 0


def run_binary(cmd):
    """Run the benchmark binary; returns its stdout JSON lines."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {r.returncode}")
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing")
    return lines


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="sizes the run: the whole passes that fit in this "
                         "time on the reference host")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run printing the per-layer metrics")
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    out = build_dir()
    binary = build(out)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    cmd = base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]
    lines = run_binary(cmd)
    result = lines[-1]
    info = {k: v for l in lines[:-1] for k, v in l.items()}
    metrics = result["metrics"]

    if not args.trace:
        # Set-up time: the median over fresh processes, since the library
        # caches its Log-Gabor bank and thread pool per process. Each one
        # generates only the inputs its warm-up op needs.
        setups = [run_binary(base + ["--setup-only"])[-1]["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_s_samples"] = setups

    declared = per_layer if args.trace else end_to_end
    undeclared = sorted(set(metrics) - declared)
    missing = sorted(declared - set(metrics))
    if undeclared or missing:
        raise RuntimeError(f"metrics not as declared in BENCHMARK.json: "
                           f"undeclared {undeclared}, missing {missing}")

    context = dict(info.pop("context"), host_cpus=host_cpus(),
                   git_sha=git_sha())
    print(json.dumps({"context": context}))
    print(json.dumps({"composition": info.pop("composition"),
                      "setup_s_samples": info.get("setup_s_samples")}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
