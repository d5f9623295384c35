#!/usr/bin/env python3
"""The repository's HTAP benchmark: builds the engine and the htapbench
program from source, runs one workload in its own process, checks every
answer, and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload tpch_olap --seed 1 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the result carries the
end-to-end metrics, with --trace 1 the per-layer ones, as BENCHMARK.json
names them; every metric htapbench measured is printed above the result.
The exit code is nonzero when the build fails, a run fails, or any answer
is wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BENCHMARK.json (next to perfbench/) names the workloads and metrics.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every workload reports every gated end-to-end metric; these are the names
# in the htapbench report that each workload's gated metrics are taken from.
HEADLINE = {
    "tpch_olap": {"latency_ms": "query_gmean_ms",
                  "throughput_per_s": "queries_per_s"},
    "tpch_fanout": {"latency_ms": "query_gmean_ms",
                    "throughput_per_s": "queries_per_s"},
    "oltp_commit": {"latency_ms": "txn_p50_ms",
                    "throughput_per_s": "commits_per_s"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns htapbench's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.h")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.STDOUT}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet) != 0:
            log("perfbench: cmake configure failed")
            return None
    if subprocess.call(["cmake", "--build", out, "-j4", "--target",
                        "htapbench"], **quiet) != 0:
        log("perfbench: build failed (rerun the cmake --build by hand to "
            "see why)")
        return None
    return os.path.join(out, "htapbench")


def run_workload(exe, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, parsed report), or
    (None, None) when it outlives its time limit."""
    # Set-up, reference answers and repeated set-ups take up to about a
    # minute; the windows themselves take at most 1.5 x seconds.
    limit = 120 + 3 * seconds
    try:
        proc = subprocess.run(
            [exe, "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {limit:g} s")
        return None, None
    lines = proc.stdout.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    return proc.returncode, report


def describe(report):
    """Prints the run facts and every metric of the htapbench report."""
    info = report.get("info", {})
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    if info.get("build_type") != "Release" or info.get("sanitizer") != "none":
        print("# NOTE: not a plain Release build; do not compare these "
              "numbers with release numbers")
    for name, m in report["metrics"].items():
        extra = ""
        if "n" in m:
            extra = f"  (q={m['q']:g} of n={m['n']})"
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}{extra}")


def result(spec, workload, report, trace):
    """The result object for one run: the spec's end-to-end metrics, or with
    trace its per-layer ones (a layer the workload leaves idle reads 0)."""
    got = report["metrics"]
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            value = got.get(m["name"], {}).get("value", 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        alias = HEADLINE[workload]
        for m in spec["end_to_end"]:
            src = got.get(alias.get(m["name"], m["name"]))
            if src is None or not src["value"] > 0:
                raise ValueError(f"metric {m['name']} missing or 0")
            metrics[m["name"]] = {"value": src["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(whys) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    names = list(whys) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"## {name}: {whys[name]}", flush=True)
        rc, report = run_workload(exe, name, args.seed, args.seconds,
                                args.trace == 1)
        if report is None:
            log(f"perfbench: {name} produced no report (exit code {rc})")
            return 1
        describe(report)
        try:
            results[name] = result(spec, name, report, args.trace == 1)
        except (KeyError, ValueError) as e:
            log(f"perfbench: {name} report is incomplete: {e}")
            return 1
        if rc != 0 or not results[name]["correct"]:
            log(f"perfbench: {name} FAILED its correctness checks")
            print(json.dumps(results[name]))
            return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
