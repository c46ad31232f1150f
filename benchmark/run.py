#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run from the repository root.  The first call configures and builds the
benchmark (benchmark/CMakeLists.txt, which compiles the library sources
under src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild only what changed.  Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
With --trace 1 the layer pass also writes a Chrome trace-event file into
the build directory's traces/ folder.

--self-test runs every workload at a tiny size and checks that each metric
named in BENCHMARK.json is emitted with its unit, and that the modelled and
count metrics repeat exactly across two runs and across 1 vs 4 threads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "latte_benchmark"

# Metrics that must repeat exactly for one seed, at any thread count.
EXACT_END_TO_END = ["modelled_p99_ms", "output_cosine", "served_frac"]
EXACT_PER_LAYER_PREFIXES = ["serve.batches", "cache.", "adapt.",
                            "core.lut_multiplies", "core.exact_macs"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = [os.path.join(out, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, BINARY)


def run_once(binary, args):
    """Runs the binary, relaying its report; returns (exit code, result)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            runs = []
            for threads in ("4", "4", "1"):
                code, result = run_once(binary, [
                    "--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", trace, "--threads", threads, "--size", "tiny"])
                if code != 0 or result is None or not result["correct"]:
                    problems.append(f"{workload} trace {trace} threads "
                                    f"{threads}: run failed ({code})")
                    continue
                runs.append(result["metrics"])
            if len(runs) != 3:
                continue
            for m in spec[section]:
                got = runs[0].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing or "
                                    f"not in {m['unit']}")
            exact = [name for name in runs[0] if name in EXACT_END_TO_END or
                     any(name.startswith(p) for p in EXACT_PER_LAYER_PREFIXES)]
            for name in exact:
                values = [r[name]["value"] for r in runs]
                if len(set(values)) != 1:
                    problems.append(f"{workload}: {name} differs across "
                                    f"runs/threads: {values}")
    for p in problems:
        print("self-test:", p, file=sys.stderr)
    print("self-test:", "FAILED" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    code, _ = run_once(binary, cmd)
    return code


if __name__ == "__main__":
    sys.exit(main())
