#!/usr/bin/env python3
"""Compare flexbench results of a parent and a change, metric by metric.

  python3 bench/flexbench/compare.py PARENT_DIR CHANGE_DIR [--layers]
  python3 bench/flexbench/compare.py --self-test

Each directory holds result files kept by `run.py --results DIR`, ideally
ten or more runs per workload and side, made alternately (parent, change,
parent, ...) with the same settings. Runs pair up in the order they were
made. For every workload and end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the share of pairs the change won, and a
verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  improved    the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound, and not every change run beat every
              parent run;
  unchanged   otherwise.

It exits 1 on any regression or when the change failed a larger share of
its operations than the parent. --layers also prints the per-layer medians
of both sides, to show which layer moved.
"""

import argparse
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10


def load_runs(directory):
    """{workload: [result, ...]} in the order the runs were kept."""
    runs = {}
    # run.py names files <workload>.seed<N>.<time_ns>.json.
    files = sorted(Path(directory).glob("*.json"),
                   key=lambda p: int(p.stem.rsplit(".", 1)[-1]))
    for path in files:
        with open(path) as f:
            result = json.load(f)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def format_quartiles(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(parent, change, better, bound):
    """(verdict, pairs won by the change, pairs) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if sign * (cm - pm) < -bound * abs(pm):
        return "regressed", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def failed_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def metric_values(results, section, name):
    return [r[section][name]["value"] for r in results
            if name in r.get(section, {})]


def compare(parent_runs, change_runs, bench, layers=False, out=sys.stdout):
    """Prints the comparison; returns the number of blocking findings."""
    findings = 0
    print(f"{'workload':<12} {'metric':<18} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict", file=out)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:<12} missing on one side", file=out)
            findings += 1
            continue
        if min(len(parent), len(change)) < MIN_PAIRS:
            print(f"{workload:<12} note: {len(parent)} parent and "
                  f"{len(change)} change runs; {MIN_PAIRS} or more pairs "
                  f"are needed to claim a gain", file=out)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = metric_values(parent, "end_to_end", name)
            c = metric_values(change, "end_to_end", name)
            if not p or not c:
                print(f"{workload:<12} {name:<18} missing", file=out)
                findings += 1
                continue
            v, wins, pairs = verdict(p, c, spec["better"], spec["bound"])
            findings += v == "regressed"
            print(f"{workload:<12} {name:<18} {format_quartiles(p):<34} "
                  f"{format_quartiles(c):<34} {wins:>3}/{pairs:<3}  {v}",
                  file=out)
        pf, cf = failed_ratio(parent), failed_ratio(change)
        if cf > pf:
            print(f"{workload:<12} failed_ratio rose from {pf:.3g} to "
                  f"{cf:.3g}", file=out)
            findings += 1
        if layers:
            for spec in bench["per_layer"]:
                name = spec["name"]
                p = metric_values(parent, "per_layer", name)
                c = metric_values(change, "per_layer", name)
                if p and c:
                    pm, cm = statistics.median(p), statistics.median(c)
                    rel = f"{(cm - pm) / pm:+.1%}" if pm else ""
                    print(f"{workload:<12}   {name:<36} {pm:>12.5g} -> "
                          f"{cm:<12.5g} {spec['unit']:<6} {rel}", file=out)
    return findings


# ------------------------------------------------------------- self-test


def synthetic(workload, seed, e2e, failed=0):
    return {"workload": workload, "seed": seed, "attempted": 1000,
            "failed": failed, "correct": failed == 0, "traced": False,
            "end_to_end": {k: {"value": v, "unit": "ms", "samples": 100}
                           for k, v in e2e.items()},
            "per_layer": {}}


def self_test():
    bench = {"end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": []}
    wobble = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    wide = [1.0, 1.3, 0.7, 1.2, 0.8, 1.25, 0.75, 1.1, 0.9, 1.0]

    def runs(scale_lat, scale_qps, noise=wobble, failed=0):
        return {"w": [synthetic("w", i, {"lat_ms": 10 * scale_lat * n,
                                         "qps": 100 * scale_qps * n},
                                failed if i == 0 else 0)
                      for i, n in enumerate(noise)]}

    # Every other pair 6% faster, the rest tied: the median gap beats the
    # parent's quartile range, but 5 wins in 10 claim no gain.
    split = [n * (0.94 if i % 2 else 1.0) for i, n in enumerate(wobble)]

    base = runs(1.0, 1.0)
    checks = [
        # (change runs, expected verdicts (lat, qps), expected findings)
        (runs(1.0, 1.0, list(reversed(wobble))), ("unchanged", "unchanged"), 0),
        (runs(1.2, 1.0), ("regressed", "unchanged"), 1),
        (runs(1.0, 0.8), ("unchanged", "regressed"), 1),
        (runs(0.8, 1.25), ("improved", "improved"), 0),
        (runs(1.0, 1.0, wide), ("unresolved", "unresolved"), 0),
        (runs(1.0, 1.0, split), ("unchanged", "unchanged"), 0),
        # Wins every pair, but by less than the parent's own spread.
        (runs(0.995, 1.005), ("unchanged", "unchanged"), 0),
        (runs(1.0, 1.0, failed=5), ("unchanged", "unchanged"), 1),
    ]
    ok = True
    for change, expected, expected_findings in checks:
        got = tuple(verdict(metric_values(base["w"], "end_to_end", s["name"]),
                            metric_values(change["w"], "end_to_end", s["name"]),
                            s["better"], s["bound"])[0]
                    for s in bench["end_to_end"])
        findings = compare(base, change, bench, out=io.StringIO())
        if got != expected or findings != expected_findings:
            print(f"self-test FAILED: expected {expected}/{expected_findings}"
                  f", got {got}/{findings}")
            ok = False
    # Result files round-trip through load_runs in the order they were kept.
    build_root = ROOT / ".bench_build"
    build_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_root) as tmp:
        for i, result in enumerate(base["w"]):
            with open(Path(tmp) / f"w.seed{i}.{1000 + i}.json", "w") as f:
                json.dump(result, f)
        loaded = load_runs(tmp)["w"]
        if [r["seed"] for r in loaded] != list(range(len(wobble))):
            print("self-test FAILED: load_runs lost the run order")
            ok = False
    print("self-test passed" if ok else "self-test failed")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians of both sides")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    findings = compare(load_runs(args.parent), load_runs(args.change), bench,
                       layers=args.layers)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
