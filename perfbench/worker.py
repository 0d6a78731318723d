"""One benchmark process: build the ledger template, probe set-up, or run
a workload's batch.  ``run.py`` spawns it; it is not meant to be run by
hand.

Modes:

* ``template`` — grow the ``diagnose`` ledger template for a seed;
* ``probe``    — perform the run's set-up, report its duration, exit;
* ``batch``    — perform the set-up, then run the workload's commands
  through ``repro.cli.main`` as a closed loop with one client, check
  every output, and write the latencies (and, traced, the per-layer
  metrics) as JSON.

Set-up is timed from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it spawned this process) to the start of the first timed
command, so it covers interpreter start, ``import repro.cli``, the
per-run directories, the ledger copy and the warm-up command.

Between commands the batch also times a fixed pure-Python reference
loop (``reference_sample``), about one sample per 0.1 s of command
time, outside every command's latency.  The median sample measures how
fast the host ran this run; ``run.py`` scales the run's times by it.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: command seconds per reference sample
REFERENCE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("key", "links")

    def __init__(self, key):
        self.key = key
        self.links = []


def reference_sample():
    """Seconds one fixed pure-Python workload takes right now.

    It allocates small objects and works dicts, lists and attributes,
    like the simulator, but uses no ``repro`` code, so no change to the
    program changes its cost.  The collector is off while it runs, so
    the heap the commands left behind does not change its cost either.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table = {}
    cells = []
    total = 0
    for key in range(4000):
        cell = _Cell(key)
        table[key] = cell
        cells.append(cell)
        if key:
            parent = cells[key >> 1]
            parent.links.append(cell)
            total += len(parent.links) + table[key - 1].key
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def _execute(cli, command):
    """Run one command; returns ``(seconds, problem or None)``."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        code = cli.main(command.argv, out=out)
    except Exception as exc:        # a crashed command counts as failed
        return time.perf_counter() - started, "raised %r" % (exc,)
    elapsed = time.perf_counter() - started
    if code != 0:
        return elapsed, "exit code %s" % code
    try:
        return elapsed, command.check(out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, "unreadable output: %r" % (exc,)


def _tree_digest(directory):
    """sha256 over the names and bytes of every file under *directory*."""
    digest = hashlib.sha256()
    for parent, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(parent, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _setup(args, tracer=None):
    """Everything before the first timed command; returns the workload's
    command batch."""
    import repro.cli as cli
    import workloads

    build, warm_up, uses_template = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(args.workdir, args.name)
    os.makedirs(workdir)
    if uses_template:
        shutil.copytree(args.template, os.path.join(workdir, "ledger"))
    if tracer is not None:
        tracer.install()
    _elapsed, problem = _execute(cli, warm_up(workdir))
    if problem is not None:
        raise SystemExit("perfbench: warm-up failed: %s" % problem)
    commands = build(args.seed, args.seconds, workdir)
    if tracer is not None:
        tracer.reset()
    return cli, commands


def _run_batch(args):
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    cli, commands = _setup(args, tracer)
    setup_s = time.monotonic() - args.spawned_at
    latencies = []
    problems = []
    references = []
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        elapsed, problem = _execute(cli, command)
        latencies.append(elapsed)
        if problem is not None:
            problems.append("%s: %s" % (command.label, problem))
        references += [reference_sample() for _ in range(
            max(1, round(elapsed / REFERENCE_EVERY_S)))]
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "reference_s": statistics.median(references),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {
            name: [value, unit]
            for name, (value, unit) in tracer.metrics(sum(latencies)).items()
        }
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("template", "probe", "batch"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--template")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    if args.mode == "template":
        import workloads

        workloads.build_ledger_template(args.template, args.seed)
        result = {"digest": _tree_digest(args.template)}
    elif args.mode == "probe":
        _setup(args)
        result = {"setup_s": time.monotonic() - args.spawned_at}
    else:
        result = _run_batch(args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
