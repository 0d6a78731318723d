"""The repository benchmark: ``python3 perfbench/run.py``.

One workload (what ``BENCHMARK.json`` runs)::

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 30 \\
        --trace 0

spawns, from the root of a checkout, a few set-up probes and then one
batch process (``perfbench/worker.py``) with a fixed ``PYTHONHASHSEED``.
The batch runs the workload's commands through ``repro.cli.main`` in
a closed loop with one client and checks every output.  The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced batch with
``--trace 1``.  The lines before it give each metric with its unit and
sample count.

The end-to-end times are host seconds scaled to a reference host
speed: the batch times a fixed pure-Python reference loop between
commands, and every time of the run is multiplied by
``REFERENCE_NOMINAL_S`` over the run's median reference sample.  The
host's own seconds are printed beside them.  Per-layer times are host
seconds.

All workloads (``--workload all``, the default) runs every workload
once untraced and twice traced with the same seed, checks that the
traced runs' deterministic counts and the ledger template repeat
exactly, reports the tracing overhead, and writes the per-workload JSON
report to ``--out`` (standard output if omitted).

Per-run directories (ledgers, caches, snapshots) live under
``.perfbench-work/`` in the checkout and are removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOAD_NAMES = ("diagnose", "baselines", "triage")

#: set-up probes run before the batch and again after it, so that
#: ``setup_s`` (the median over the probes and the batch's own set-up)
#: samples the host at both ends of the run
SETUP_PROBES = 3

#: seconds one run may take; a worker still running then is stopped
#: and the run fails
RUN_TIMEOUT = 170

#: the reference loop's median time on the calibration host (a 2-vCPU
#: x86-64 VM, Python 3.11); a run whose host ran the loop slower has its
#: times scaled down by the same factor
REFERENCE_NOMINAL_S = 0.003


class BenchmarkError(Exception):
    """The benchmark could not run (not a failed command)."""


def _spawn(mode, args, workdir, deadline, name, result_name, **extra):
    result = os.path.join(workdir, result_name)
    argv = [sys.executable, WORKER, mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", workdir,
            "--name", name, "--template", os.path.join(workdir, "template"),
            "--result", result]
    for key, value in extra.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        completed = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("%s worker stopped: the run took over %ds"
                             % (mode, RUN_TIMEOUT)) from None
    if completed.returncode != 0:
        raise BenchmarkError("%s worker exited with code %d"
                             % (mode, completed.returncode))
    with open(result) as handle:
        return json.load(handle)


def run_workload(args):
    """One run of one workload; returns the batch result plus set-up."""
    deadline = time.monotonic() + RUN_TIMEOUT
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix="%s-s%d-" % (args.workload, args.seed), dir=WORK_ROOT)

    def probes(first):
        return [_spawn("probe", args, workdir, deadline, "probe-%d" % index,
                       "probe-%d.json" % index)["setup_s"]
                for index in range(first, first + SETUP_PROBES)]

    try:
        template = None
        if args.workload == "diagnose":
            template = _spawn("template", args, workdir, deadline,
                              "template-build", "template.json")["digest"]
        setups = probes(0)
        batch = _spawn("batch", args, workdir, deadline, "batch",
                       "batch.json", trace=int(args.trace),
                       spans_out=args.spans_out)
        setups += probes(SETUP_PROBES) + [batch["setup_s"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    batch["setups"] = setups
    batch["template_digest"] = template
    return batch


def host_speed(batch):
    """How much faster than the calibration host this run's host ran."""
    return REFERENCE_NOMINAL_S / batch["reference_s"]


def end_to_end(batch, scale=None):
    """``{name: (value, unit, samples)}`` of the untraced metrics, times
    scaled by ``scale`` (default: the run's host speed)."""
    if scale is None:
        scale = host_speed(batch)
    latencies = batch["latencies"]
    return {
        "wall_s": (sum(latencies) * scale, "s", 1),
        "op_p50_s": (statistics.median(latencies) * scale, "s",
                     len(latencies)),
        "setup_s": (statistics.median(batch["setups"]) * scale, "s",
                    len(batch["setups"])),
        "peak_rss_mb": (batch["peak_rss_mb"], "MB", 1),
    }


def _tail(latencies):
    """The highest decile percentile with at least ten samples beyond it,
    as ``(label, value)``, or None."""
    for percent in (99, 90):
        if len(latencies) * (100 - percent) / 100 >= 10:
            cuts = statistics.quantiles(latencies, n=100)
            return "op_p%d_s" % percent, cuts[percent - 1]
    return None


def _result_line(batch, metrics):
    attempted = len(batch["latencies"])
    failed = len(batch["problems"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def single(args):
    batch = run_workload(args)
    for problem in batch["problems"]:
        print("FAILED %s" % problem)
    if args.trace:
        metrics = {name: tuple(pair) for name, pair in
                   batch["layers"].items()}
        for name, (value, unit) in sorted(metrics.items()):
            print("%s %s %.6g %s" % (args.workload, name, value, unit))
    else:
        measured = end_to_end(batch)
        host = end_to_end(batch, scale=1.0)
        print("%s host speed x%.4f (reference loop %.6g s)" % (
            args.workload, host_speed(batch), batch["reference_s"]))
        for name, (value, unit, samples) in measured.items():
            print("%s %s %.6g %s (n=%d; host %.6g %s)" % (
                args.workload, name, value, unit, samples, host[name][0],
                unit))
        tail = _tail(batch["latencies"])
        if tail is not None:
            print("%s %s %.6g s (n=%d)" % (
                args.workload, tail[0], tail[1] * host_speed(batch),
                len(batch["latencies"])))
        metrics = {name: (value, unit)
                   for name, (value, unit, _n) in measured.items()}
    print(_result_line(batch, metrics))
    return 0


def all_workloads(args):
    """Every workload: one untraced run, two traced runs, one report."""
    import tracing

    report = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        batches = [run_workload(argparse.Namespace(
            **dict(vars(args), workload=workload, trace=trace)))
            for trace in (0, 1, 1)]
        measured = {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples)
                    in end_to_end(batches[0]).items()}
        first, second = (batch["layers"] for batch in batches[1:])
        drifted = sorted(name for name in tracing.DETERMINISTIC
                         if first[name][0] != second[name][0])
        if len({batch["template_digest"] for batch in batches}) > 1:
            drifted.append("ledger template bytes")
        problems = [p for batch in batches for p in batch["problems"]]
        failed = len(problems)
        attempted = sum(len(batch["latencies"]) for batch in batches)
        overhead = first["traced_wall_s"][0] * host_speed(batches[1]) \
            / measured["wall_s"]["value"] - 1.0
        report[workload] = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "end_to_end": measured,
            "layers": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in first.items()},
            "tracing_overhead": overhead,
            "deterministic_counts_repeat": not drifted,
            "drifted_counts": drifted,
        }
        ok = ok and failed == 0 and not drifted
        for name, entry in measured.items():
            print("%-9s %-12s %12.6g %-3s (n=%d)"
                  % (workload, name, entry["value"], entry["unit"],
                     entry["samples"]))
        print("%-9s attempted %d, failed %d, tracing overhead %+.1f%%, "
              "deterministic counts %s" % (
                  workload, attempted, failed, 100 * overhead,
                  "repeat" if not drifted else "DRIFT: %s" % drifted))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print("report written to %s" % args.out)
    else:
        print(text)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the repro CLI (see perfbench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="size of a run's fixed batch, in seconds of "
                             "work on the calibration host")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="--workload all: write the JSON "
                                      "report here")
    parser.add_argument("--spans-out", help="traced run: write its spans "
                                            "here as JSON lines")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: subprocess.run stops the running
    # worker and the run directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no src/repro/cli.py under %s; run from the root "
              "of a repository checkout" % ROOT, file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return all_workloads(args)
        return single(args)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
