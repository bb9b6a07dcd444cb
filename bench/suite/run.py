#!/usr/bin/env python3
"""Builds and runs the cdcs benchmark suite, or compares two sets of results.

Run (from anywhere; paths are relative to the repository root):

    python3 bench/suite/run.py                      # every workload, seed 7
    python3 bench/suite/run.py --workload edit_wan --seed 3
    python3 bench/suite/run.py --trace 1            # per-layer metrics
    python3 bench/suite/run.py --compare A/ B/      # two sets of result files

Each workload runs in its own cdcs_bench process (built from source into
--build) for BENCHMARK.json's run_seconds. --seconds is part of the
BENCHMARK.json command interface and must equal run_seconds, so every
result set has the same length. Every metric is printed as
`workload metric value unit`, the cdcs_bench outputs are written to --out
as JSON, and the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit status is 1 when any unit failed its checks or
cdcs_bench could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures on first use, then builds cdcs_bench; returns its path."""
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "cdcs_bench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        subprocess.run(step, check=True, stdout=sys.stderr, env=env)
    return build_dir / "cdcs_bench"


def reference_args():
    with open(SUITE / "expected.json") as f:
        instances = json.load(f)["instances"]
    args = []
    for instance, fields in sorted(instances.items()):
        for field, value in sorted(fields.items()):
            args += ["--ref", f"{instance}.{field}={value}"]
    return args


def run_workload(binary, workload, opts, seconds, expected_metrics):
    cmd = [str(binary), "--workload", workload, "--seed", str(opts.seed),
           "--seconds", str(seconds)] + reference_args()
    if opts.units:
        cmd += ["--units", str(opts.units)]
    if opts.setups:
        cmd += ["--setups", str(opts.setups)]
    if opts.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=60 + 4 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: cdcs_bench exited {proc.returncode}")
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    if names != expected_metrics:
        raise RuntimeError(
            f"{workload}: cdcs_bench metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected_metrics - names)}, "
            f"extra {sorted(names - expected_metrics)}")
    return result


def report(result):
    workload = result["workload"]
    for name, m in result["metrics"].items():
        note = ""
        if name == "latency_ms_tail":
            note = f"  (p{result['tail_percentile']:g})"
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"{workload} units {result['attempted']} count"
          f"  (failed {result['failed']}, threads {result['threads']})")
    for failure in result["failures"]:
        log(f"{workload} FAILED {failure}")


def run(opts):
    bench = load_benchmark()
    section = "per_layer" if opts.trace else "end_to_end"
    expected_metrics = {m["name"] for m in bench[section]}
    seconds = bench["run_seconds"]
    if opts.seconds is not None and opts.seconds != seconds:
        sys.exit(f"--seconds {opts.seconds:g} differs from run_seconds "
                 f"{seconds} in BENCHMARK.json")
    known = [w["name"] for w in bench["workloads"]]
    workloads = opts.workloads.split(",") if opts.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; choose from {known}")

    build_dir = Path(opts.build) if opts.build else ROOT / ".bench_build"
    try:
        binary = build(build_dir.resolve())
        results = [run_workload(binary, w, opts, seconds, expected_metrics)
                   for w in workloads]
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1

    for result in results:
        report(result)
    out = Path(opts.out) if opts.out else (
        build_dir / "results" /
        f"{'-'.join(workloads)}-seed{opts.seed}-trace{int(opts.trace)}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results}, indent=1) + "\n")
    log(f"results written to {out}")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def load_values(path):
    """(workload, metric) -> list of values over every result file."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() \
        else [Path(path)]
    values = {}
    for f in files:
        for r in json.loads(f.read_text())["runs"]:
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def describe(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(path_a, path_b):
    """Prints median [q1, q3] of both sets per metric and workload, and
    flags medians that differ by more than the metric's bound. A metric
    whose spread exceeds its bound is unresolved unless every run of B
    beats every run of A. success_rate has no tolerance: it is worse as
    soon as a run of B has a lower success rate than the worst run of A.
    Returns 1 when any metric got worse."""
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_values(path_a), load_values(path_b)
    worse = 0
    print(f"{'workload':<15} {'metric':<28} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        verdict = ""
        spec = specs.get(name, {})
        if "bound" in spec:
            sign = 1 if spec["better"] == "lower" else -1
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            b_wins_all = all(sign * (vb - va) < 0
                             for va in a[key] for vb in b[key])
            if name == "success_rate" and min(b[key]) < min(a[key]):
                verdict = "WORSE"
            elif sign * change > spec["bound"]:
                verdict = "WORSE"
            elif spread > spec["bound"] and not b_wins_all:
                verdict = "unresolved"
            elif sign * change < -spec["bound"]:
                verdict = "better"
            else:
                verdict = "ok"
        worse += verdict == "WORSE"
        print(f"{workload:<15} {name:<28} {describe(qa):>30} "
              f"{describe(qb):>30} {change:>+8.2%}  {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", "--workload", dest="workloads",
                   help="comma-separated workloads (default: all)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float,
                   help="must equal run_seconds from BENCHMARK.json")
    p.add_argument("--units", type=int, help="run exactly N units instead")
    p.add_argument("--setups", type=int, help="set-ups per run (default 3)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1),
                   help="1: report per-layer metrics instead")
    p.add_argument("--build", help="build directory (default .bench_build)")
    p.add_argument("--out", help="results JSON file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two sets of result files and exit")
    opts = p.parse_args()
    if opts.compare:
        return compare(*opts.compare)
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
