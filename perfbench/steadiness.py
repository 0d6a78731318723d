"""Measure how steady the benchmark is: run one or more workloads once per
seed and report, per end-to-end metric, the quartiles of the runs and
their spread (interquartile range over median) against the metric's
bound in ``BENCHMARK.json``.

    python3 perfbench/steadiness.py --workload diagnose --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-10 --label second \\
        --out perfbench/steadiness.json

Each run is a fresh ``perfbench/run.py`` process with
``BENCHMARK.json``'s ``run_seconds``.  With ``--out``, the runs'
values and quartiles are merged into that file under ``--label``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def measure(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit("%s seed %d: %d failed commands" % (
                workload, seed, result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.4g" % (name, metric["value"])
            for name, metric in result["metrics"].items())), flush=True)
    return values


def summarize(values, bounds):
    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        summary[name] = {
            "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bounds[name],
            "values": series,
        }
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--out")
    parser.add_argument("--label", default="runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        summary = summarize(
            measure(workload, _seeds(args.seeds), spec["run_seconds"]),
            bounds)
        report[workload] = summary
        for name, entry in summary.items():
            flag = "" if entry["spread"] < entry["bound"] / 3 else \
                "  <-- above a third of the bound"
            print("%-9s %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.4f "
                  "(bound %.2f)%s" % (workload, name, entry["median"],
                                     entry["q1"], entry["q3"],
                                     entry["spread"], entry["bound"], flag))
    if args.out:
        try:
            with open(args.out) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            record = {}
        record.setdefault(args.label, {}).update(report)
        record[args.label]["_host"] = "%s, %s, %d CPUs, Python %s" % (
            platform.machine(), platform.system(), os.cpu_count(),
            platform.python_version())
        record[args.label]["_seeds"] = args.seeds
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
