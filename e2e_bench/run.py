#!/usr/bin/env python3
"""Build and run the NOVA end-to-end benchmark.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --self-test

The first call configures and builds e2e_bench/ (which compiles the nova
library from src/) into $CARGO_TARGET_DIR/e2e_bench, default
.bench_build/e2e_bench under the repository root; later calls only rebuild
what changed. Build output goes to stderr, so the benchmark's last stdout
line stays its JSON result. --trace 1 also writes the run's spans as a
Chrome trace to <build dir>/traces/<workload>.json.

--self-test runs a smoke-sized copy of every workload, traced and
untraced, and checks that every metric BENCHMARK.json names is printed
with its unit and that each trace's self times add up to its wall time.

Exits non-zero when the build fails, a correctness check fails, or the
self-test finds a problem.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = "nova_e2e_bench"
WORKLOADS = ("whole_poisson", "continuous_backlog", "pricing_sweep")
# Seed used while the benchmark was written, and one held out from that
# work for re-checking later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SMOKE_SCALE = 0.02


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e_bench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no nova sources under {ROOT / 'src'}; run the "
                 "benchmark from a full checkout of the repository")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", TARGET,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return out / TARGET


def bench_args(binary, workload, seed, seconds, trace, scale):
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", str(scale)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}.json")]
    return args


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            args = bench_args(binary, workload, DEFAULT_SEED, 1, trace,
                              SMOKE_SCALE)
            proc = subprocess.run(args, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{label}: outputs not correct")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(wanted):
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"{section}: {sorted(set(metrics) ^ set(wanted))}")
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {got.get('unit')} "
                                    f"!= {unit}")
                printed = [line for line in lines
                           if line.startswith("metric ")
                           and line.split()[1] == name]
                if not printed or printed[0].split()[3] != unit:
                    problems.append(f"{label}: {name} not printed with {unit}")
            if trace:
                problems += check_trace(label, lines, Path(args[-1]))
            print(f"self-test {label}: ran", file=sys.stderr)
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    if problems:
        return 1
    print(f"self-test ok: {len(WORKLOADS)} workloads, traced and untraced")
    return 0


def check_trace(label, lines, trace_file):
    """The printed layer accounting adds up and the trace file loads."""
    problems = []
    sums = [line.split() for line in lines if line.strip().startswith("sum ")]
    if not sums:
        return [f"{label}: no layer accounting printed"]
    # "  sum  <self total> s  (wall <wall> s)"
    self_total, wall = float(sums[0][1]), float(sums[0][4])
    if abs(self_total - wall) > 1e-5 * max(wall, 1e-9):
        problems.append(f"{label}: self times {self_total} s != wall {wall} s")
    try:
        events = json.loads(trace_file.read_text())["traceEvents"]
        if not events:
            problems.append(f"{label}: empty trace file")
    except (OSError, ValueError, KeyError) as error:
        problems.append(f"{label}: trace file unreadable: {error}")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"{HELD_OUT_SEED} is held out for re-checking claims)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run at {SMOKE_SCALE * 100:g}%% of the full stream size")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    scale = SMOKE_SCALE if args.smoke else 1.0
    return subprocess.run(bench_args(binary, args.workload, args.seed,
                                     args.seconds, args.trace,
                                     scale)).returncode


if __name__ == "__main__":
    sys.exit(main())
