#!/usr/bin/env python3
"""flexbench: build the benchmark, run workloads, check outputs, print metrics.

Run from the repository root:

  python3 bench/flexbench/run.py                 # all workloads, traced
  python3 bench/flexbench/run.py --smoke         # all workloads, tiny, ~15 s
  python3 bench/flexbench/run.py --workload interactive --seed 3 \\
      --seconds 10 --trace 0                     # one run, one JSON line

Each workload runs in its own process. Every metric is printed by name with
its unit and sample count. With --workload, the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). The exit code is non-zero when the build fails, an operation
fails or an output oracle disagrees.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; --results DIR also keeps each run's full result file there
for compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["interactive", "bi", "analytics", "htap"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "flexbench"


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path or
    None."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "flexbench",
                  "-j", jobs])
    build_log = bdir / "build.log"
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"flexbench: {' '.join(cmd)}: {e}")
                return None
            if code != 0:
                log(f"flexbench: build failed; see {build_log}")
                log(build_log.read_text()[-3000:])
                return None
    return bdir / "flexbench"


def run_workload(binary, workload, args, out_root):
    """Runs one workload process; returns (exit code, result dict or None)."""
    out = out_root / workload
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out}"]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"flexbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    try:
        with open(out / f"{workload}.json") as f:
            return code, json.load(f)
    except (OSError, ValueError) as e:
        log(f"flexbench: {workload} left no result ({e}); exit code {code}")
        return code or 1, None


def print_table(result):
    log_line = (f"== {result['workload']} (seed {result['seed']}, "
                f"{result['seconds']} s window): "
                f"{result['attempted']} attempted, {result['failed']} failed")
    print(log_line)
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for section in ("end_to_end", "per_layer"):
        for name, m in sorted(result[section].items()):
            print(f"   {section:<10} {name:<36} {m['value']:>16.6g} "
                  f"{m['unit']:<6} n={m['samples']}")


def result_line(result, bench, sections):
    """The benchmark's result line over the metrics BENCHMARK.json lists in
    `sections`; None if the run did not report one of them."""
    metrics = {}
    for section in sections:
        for spec in bench[section]:
            name, unit = spec["name"], spec["unit"]
            m = result[section].get(name)
            if m is None or m["unit"] != unit:
                log(f"flexbench: {result['workload']} did not report "
                    f"{name} [{unit}]")
                return None
            metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def keep_result(result, results_dir):
    results_dir.mkdir(parents=True, exist_ok=True)
    name = (f"{result['workload']}.seed{result['seed']}."
            f"{time.time_ns()}.json")
    with open(results_dir / name, "w") as f:
        json.dump(result, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 1 s windows, oracles on")
    parser.add_argument("--results", type=Path,
                        help="also keep each run's result file here")
    args = parser.parse_args()

    try:
        with open(ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log(f"flexbench: cannot read BENCHMARK.json: {e}")
        return 1
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.trace is None:
        # A full run reports both metric sets; a single-workload run picks one.
        args.trace = 0 if args.workload else 1

    binary = build(build_dir())
    if binary is None:
        return 1
    out_root = build_dir() / "out"
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run_workload(binary, workload, args, out_root)
        if result is None:
            return 1
        print_table(result)
        if args.results:
            keep_result(result, args.results)
        ok = ok and code == 0 and result["correct"]
        if args.workload:
            sections = ["per_layer"] if args.trace else ["end_to_end"]
        else:
            sections = ["end_to_end"] + (["per_layer"] if args.trace else [])
        line = result_line(result, bench, sections)
        if line is None:
            return 1
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            key = name if args.workload else f"{workload}.{name}"
            summary["metrics"][key] = m
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
