"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bugs``                       — list the 31 benchmark failures;
* ``run <bug> [--passing]``      — execute one benchmark run;
* ``log <bug> [--no-toggling]``  — LBRLOG/LCRLOG report at the failure;
* ``synth list/show/emit``       — the procedural bug synthesizer
  (:mod:`repro.bugs.synth`): list a seeded population, show one
  generated workload, or emit MiniC sources to a directory.  Every
  ``run``/``log``/``diagnose``/``triage`` command accepts synthetic
  ``synth-…`` names alongside the corpus names (see ``docs/synth.md``);
* ``diagnose <bug> [--tool T]``  — statistical diagnosis (default
  LBRA/LCRA by bug category; ``--tool cbi|cci|pbi`` runs a baseline;
  the choice list comes from the pluggable tool registry,
  :func:`repro.core.api.available_tools`);
* ``triage --reports N --seed S`` — fleet-scale triage: draw N failure
  reports from a simulated fleet of the 31 bugs, cluster them by fault
  signature, and dispatch one diagnosis campaign per cluster (see
  ``docs/fleet.md``); deterministic by seed and jobs-invariant;
  ``--synth N`` swaps the corpus population for N synthesized bugs;
* ``experiment <name>``          — regenerate one paper table/figure;
  ``experiment curves --knob K --points P --seed S`` sweeps one
  synthesizer knob and reports rank-of-true-root-cause as a function
  of the difficulty parameter;
* ``experiment all``             — regenerate every table/figure;
* ``experiments``                — list available experiment names;
* ``resume [<session-id>]``      — resume an interrupted
  ``--checkpoint`` invocation (omit the id to list sessions);
* ``ledger path``                — resolved run-ledger location;
* ``obs report <trace.jsonl>``   — per-phase breakdown of a trace;
* ``obs flame <trace.jsonl>``    — folded-stack text flame view;
* ``obs explain <report.json>``  — per-event provenance of a diagnosis;
* ``obs trends``                 — quality/latency deltas per ledger
  series (non-zero exit on regression); ``--view convergence`` shows
  per-signature rank convergence;
* ``obs watch <snapshot.json>``  — self-refreshing terminal dashboard
  over the live telemetry snapshot ``repro triage --snapshot-out``
  publishes;
* ``obs compare <A> <B>``        — structured diff of two ledger
  entries (``@N`` sequence refs or entry-id prefixes);
* ``obs conformance [table...]`` — re-run experiment drivers and check
  their output against the pinned paper-table values.

``run``, ``log``, ``diagnose``, ``experiment``, and ``obs
conformance`` accept ``--backend {reference,threaded}``, selecting the
VM execution backend for every machine the invocation builds
(default: threaded).  Backends produce bit-identical results — the
threaded one is simply faster; see ``docs/performance.md`` for the
performance model and :mod:`repro.machine.backends` for the contract.

``diagnose``, ``triage``, and ``experiment`` accept ``--jobs N`` (fan campaign runs
out over N worker processes), ``--cache``/``--no-cache`` (the
invocation always replays repeated plan runs and baseline recordings
from memory; ``--cache`` also keeps them on disk under
``--cache-dir``, default ``.repro-cache/``), and print the executor's
statistics report when either is active.
Results are identical at any ``--jobs`` value and any cache state —
parallelism and caching change wall-clock time only.

``run``, ``log``, ``diagnose``, ``triage``, and ``experiment`` accept
``--trace FILE.jsonl`` and ``--metrics-out FILE.json``: observability
is then enabled for the invocation and the span trace / metrics
snapshot are written on exit (see :mod:`repro.obs`; render traces with
``repro obs report``).  ``triage`` additionally accepts
``--snapshot-out FILE.json``, publishing the same snapshot document
(:mod:`repro.obs.timeseries`) live: up front, after a diagnosed cluster
at most once per ``repro obs watch`` poll interval, and complete at
the end.
Either file feeds ``repro obs watch``; a final snapshot that cannot
be written is reported in one line, with exit status 1.

``diagnose`` and ``experiment`` also append to the persistent run
ledger (:mod:`repro.obs.ledger`) under ``--ledger-dir`` (default
``.repro-ledger/``, overridable via ``$REPRO_LEDGER_DIR``); pass
``--no-ledger`` to skip recording.

``diagnose``, ``experiment``, and ``obs conformance`` accept
``--inject-faults SPEC`` (plus ``--fault-seed N``): a deterministic
chaos schedule — ``site[:times[:skip]]``, comma-separated — injected
at the named sites of the executor/cache/ledger stack (see
:mod:`repro.runtime.resilience` and ``docs/resilience.md``).  Arrival
counts are shared across the whole process tree of the invocation, so
``worker-crash:1`` means exactly one crash.  Output must be identical
to the fault-free run; that is the resilience contract the chaos tests
pin.

``diagnose`` and ``experiment`` also accept the durability flags
(:mod:`repro.runtime.checkpoint`): ``--checkpoint`` journals campaign
progress under ``--checkpoint-dir`` (default ``.repro-checkpoints/``,
overridable via ``$REPRO_CHECKPOINT_DIR``) so a killed invocation
resumes — via ``repro resume``, ``--resume``, or simply re-running the
same command — with byte-identical final output; ``--deadline SECONDS``
and ``--run-budget N`` bound the invocation, degrading gracefully to a
``partial`` report with a confidence summary instead of raising.
In every campaign command — ``diagnose``, ``experiment``, ``triage``
and ``obs conformance`` — SIGINT/SIGTERM shut worker pools down,
release locks, remove the chaos state, flush the journals, and exit
with code 130, or 75 (resumable) when a checkpoint session is active.
"""

import argparse
import contextlib
import sys

from repro.bugs.registry import bug_names, get_bug


def _version():
    try:
        from importlib import metadata
        return metadata.version("repro")
    except Exception:
        import repro
        return repro.__version__


def _bug_name(value):
    """argparse type: a corpus bug name or a well-formed ``synth-…`` name.

    The corpus positionals used to be ``choices=sorted(bug_names())``;
    synthetic workloads (:mod:`repro.bugs.synth`) have an unbounded
    namespace, so validation moves here — still failing fast with the
    usual argparse exit instead of a traceback from deep inside a run.
    """
    if value in bug_names():
        return value
    from repro.bugs import synth

    if synth.is_synth_name(value):
        try:
            synth.SynthSpec.from_name(value)
        except synth.SynthSpecError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    raise argparse.ArgumentTypeError(
        "unknown bug %r (list corpus names with `repro bugs`; "
        "synthetic names look like synth-seq-p2-l1-a4-w0-s7, see "
        "`repro synth list`)" % (value,))


def _synth_name(value):
    """argparse type: a well-formed ``synth-…`` name only."""
    from repro.bugs import synth

    try:
        synth.SynthSpec.from_name(value)
    except synth.SynthSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _poll_interval(value):
    """argparse type: a poll interval, finite seconds greater than 0."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = float("nan")            # fails the range test below
    if not 0 < seconds < float("inf"):
        raise argparse.ArgumentTypeError(
            "poll interval must be finite seconds greater than 0, "
            "not %s" % value)
    return seconds


def _experiment_registry():
    from repro.experiments import (
        ablations,
        adaptive,
        concurrency_baselines,
        figure1,
        figure2,
        latency,
        loglatency,
        table1,
        table2,
        table3,
        table4,
        table5,
        table6,
        table7,
    )
    from repro.experiments import curves

    return {
        "table1": table1.run,
        "table2": table2.run,
        "table3": table3.run,
        "table4": table4.run,
        "table5": table5.run,
        "table6": lambda executor=None: table6.run(
            cbi_runs=200, overhead_runs=3, executor=executor),
        "table7": table7.run,
        "figure1": figure1.run,
        "figure2": figure2.run,
        "latency": lambda executor=None: latency.run(
            cbi_runs=(100, 500), executor=executor),
        "loglatency": loglatency.run,
        "concurrency-baselines":
            lambda executor=None: concurrency_baselines.run(
                n_runs=200, executor=executor),
        "adaptive": adaptive.run,
        "ablation-pollution": ablations.run_pollution,
        "ablation-lcr-capacity": ablations.run_lcr_capacity,
        # `experiment all` gets a fast smoke sweep; `experiment curves`
        # invoked by name honors --knob/--points/--per-point/--seed.
        "curves": lambda executor=None: curves.run(
            points=2, per_point=2, baseline_runs=60, executor=executor),
    }


def _write_stats(executor, out):
    """Append the statistics block if ``--jobs`` > 1 or ``--cache``."""
    from repro.experiments.report import executor_stats_result

    if executor.jobs > 1 or executor.cache_all:
        out.write("\n" + executor_stats_result(executor).format() + "\n")


@contextlib.contextmanager
def _fault_session(args, out):
    """Activate the ``--inject-faults`` chaos schedule, if any.

    The plan gets a fresh shared state directory so arrival counts are
    global across the invocation's process tree — ``worker-crash:1``
    fires exactly once no matter how many workers the pool spawns.
    Removing the directory on exit retires the plan (arrivals at a
    retired plan never fire), so commands must shut their worker pool
    down *inside* this session: the directory has to outlive every
    process that inherited the plan.
    """
    spec = getattr(args, "inject_faults", None)
    if not spec:
        yield
        return
    import shutil
    import tempfile

    from repro.runtime import resilience

    state_dir = tempfile.mkdtemp(prefix="repro-faults-")
    try:
        # A spec that does not parse must not leave its state behind.
        plan = resilience.FaultPlan.parse(
            spec, seed=getattr(args, "fault_seed", 0), state_dir=state_dir,
        )
        out.write("fault injection active: %s (seed %d)\n"
                  % (plan.describe_spec(), plan.seed))
        with resilience.use_plan(plan):
            yield
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


@contextlib.contextmanager
def _durability_session(args, out):
    """Checkpoint session, supervisor, budget, and graceful signals.

    Opened by every campaign command; only ``diagnose``/``experiment``
    take its flags.  Without ``--checkpoint`` (or ``--resume``) only the
    signal conversion and any ``--deadline``/``--run-budget`` budget
    install — SIGTERM then still unwinds through every ``finally``
    (pools shut down, locks release) before the process exits.  With
    checkpointing on, campaign streams journal their progress under the
    session directory; the session is removed when the invocation
    completes with budget to spare, and kept (with a resume hint on
    interrupt) otherwise, so ``repro resume`` — or simply re-running
    the same command with ``--checkpoint`` — continues where it
    stopped.
    """
    from repro.runtime import checkpoint

    run_budget = getattr(args, "run_budget", None)
    deadline = getattr(args, "deadline", None)
    budget = checkpoint.NULL_BUDGET
    if run_budget is not None or deadline is not None:
        budget = checkpoint.CampaignBudget(run_budget=run_budget,
                                           deadline=deadline)
    enabled = getattr(args, "checkpoint", False) \
        or getattr(args, "resume", False)
    if not enabled:
        with checkpoint.use_budget(budget), checkpoint.graceful_signals():
            yield
        return
    root = checkpoint.resolve_checkpoint_dir(
        getattr(args, "checkpoint_dir", None))
    session = checkpoint.CheckpointSession.create(
        root, getattr(args, "_argv", []))
    print("repro: checkpoint session %s under %s"
          % (session.session_id, root), file=sys.stderr)
    supervisor = checkpoint.CampaignSupervisor().start()
    completed = False
    try:
        with checkpoint.use_session(session), \
                checkpoint.use_budget(budget), \
                checkpoint.use_supervisor(supervisor), \
                checkpoint.graceful_signals():
            yield
            completed = True
    finally:
        supervisor.stop()
        session.close()
        if completed and budget.exhausted() is None:
            session.mark_complete()
        elif not completed:
            checkpoint.note_interrupted_session(session)


@contextlib.contextmanager
def _backend_session(args):
    """Install the ``--backend`` choice as the process-wide default.

    Every ``MachineConfig()`` built while the session is active — in
    this process and in worker processes forked from it — resolves to
    the chosen execution backend.  Without the flag the default
    (threaded) stays in force.
    """
    name = getattr(args, "backend", None)
    if not name:
        yield
        return
    from repro.machine.backends import use_backend

    with use_backend(name):
        yield


@contextlib.contextmanager
def _ledger_session(args):
    """Install a persistent run ledger unless ``--no-ledger`` was given."""
    from repro.obs.ledger import Ledger, use

    if not getattr(args, "ledger", True):
        yield
        return
    with use(Ledger(getattr(args, "ledger_dir", None))):
        yield


@contextlib.contextmanager
def _obs_session(args, out):
    """Install a collecting Observability when --trace/--metrics-out/
    --snapshot-out ask for one, and export the buffers on the way out
    (snapshot publication happens live, inside the triage loop)."""
    from repro.obs import Observability, use

    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    snapshot_out = getattr(args, "snapshot_out", None)
    if not trace and not metrics_out and not snapshot_out:
        yield
        return
    with use(Observability()) as obs:
        yield
    obs.export(trace_path=trace, metrics_path=metrics_out)
    if trace:
        out.write("trace written to %s\n" % trace)
    if metrics_out:
        out.write("metrics written to %s\n" % metrics_out)


@contextlib.contextmanager
def _campaign_session(args, out):
    """The session stack of a campaign command; yields its executor.

    Opens the backend session, builds the executor ``--jobs``/``--cache``
    ask for — after the backend, so forked workers inherit the chosen
    process default — then the fault, ledger, obs and durability
    sessions.  The pool shuts down inside the fault session: the chaos
    state directory has to outlive every worker, or a straggling
    speculative batch would restart the schedule.
    """
    from repro.runtime.executor import CampaignExecutor

    with _backend_session(args):
        executor = CampaignExecutor(jobs=args.jobs, cache=args.cache,
                                    cache_dir=args.cache_dir)
        with _fault_session(args, out), _ledger_session(args), \
                _obs_session(args, out), _durability_session(args, out):
            try:
                yield executor
            finally:
                executor.shutdown()


def _cmd_bugs(_args, out):
    for name in sorted(bug_names()):
        bug = get_bug(name)
        out.write("%-12s %s\n" % (name, bug.describe()))
    return 0


def _cmd_run(args, out):
    bug = get_bug(args.bug)
    with _backend_session(args), _obs_session(args, out):
        tool = _log_tool(bug, toggling=True)
        if args.passing:
            status = tool.run_passing(0)
        else:
            status = tool.run_failing(0)
    out.write("outcome: %s\n" % status.describe())
    for item in status.output:
        out.write("output: %s\n" % (item,))
    out.write("retired instructions: %d\n" % status.retired)
    out.write("classified as failure: %s\n" % bug.is_failure(status))
    return 0


def _log_tool(bug, toggling, name="auto"):
    from repro.core.api import get_log_tool

    if name == "auto":
        name = "lbrlog" if bug.category == "sequential" else "lcrlog"
    return get_log_tool(name)(bug, toggling=toggling)


def _cmd_log(args, out):
    bug = get_bug(args.bug)
    with _backend_session(args), _obs_session(args, out):
        tool = _log_tool(bug, toggling=not args.no_toggling,
                         name=args.tool)
        report = tool.report(tool.run_failing(0))
        out.write(report.describe() + "\n")
        if tool.ring == "lbr":
            position = report.position_of_line(bug.root_cause_lines)
        else:
            position = report.position_of(
                bug.root_cause_lines,
                state_tags=getattr(bug, "fpe_state_tags", None),
            )
        out.write("root-cause event position: %s\n" % position)
    return 0


def _cmd_diagnose(args, out):
    from repro.core.api import get_tool
    from repro.core.lbra import DiagnosisError
    from repro.baselines.cbi import BaselineUnsupportedError

    bug = get_bug(args.bug)
    name = args.tool
    if name == "auto":
        name = "lbra" if bug.category == "sequential" else "lcra"
    options = {}
    if name in ("lbra", "lcra"):
        options["scheme"] = args.scheme
    try:
        with _campaign_session(args, out) as executor:
            report = get_tool(name)(bug, executor=executor, **options) \
                .run_diagnosis(args.runs, args.runs)
            out.write(report.describe(n=args.top) + "\n")
            if args.json:
                out.write(report.to_json() + "\n")
            if args.json_out:
                with open(args.json_out, "w") as handle:
                    handle.write(report.to_json() + "\n")
                out.write("report written to %s\n" % args.json_out)
    except (DiagnosisError, BaselineUnsupportedError) as exc:
        out.write("diagnosis failed: %s\n" % exc)
        return 1
    _write_stats(executor, out)
    return 0


def _cmd_triage(args, out):
    """``repro triage``: simulate the fleet, cluster, diagnose."""
    from repro.fleet import FleetStream, triage_reports
    from repro.obs.timeseries import SnapshotNotWritten

    population = args.bugs
    if args.synth is not None:
        from repro.bugs import synth

        population = synth.population_names(args.synth, seed=args.seed)
    with _campaign_session(args, out) as executor:
        stream = FleetStream(population=population, seed=args.seed,
                             executor=executor)
        reports = stream.generate(args.reports)
        result = triage_reports(
            reports, runs=args.runs, depth=args.depth,
            granularity=args.granularity, executor=executor,
            seed=args.seed, snapshot_path=args.snapshot_out,
        )
        # Print before the obs session exports --metrics-out, so a
        # failed export still leaves the table on stdout.
        if stream.shortfall is not None:
            out.write("warning: %s\n" % stream.shortfall.describe())
        out.write(result.table().format() + "\n")
        _write_stats(executor, out)
    if args.snapshot_out:
        if not result.snapshot_published:
            raise SnapshotNotWritten(args.snapshot_out)
        out.write("telemetry snapshot published to %s (render with "
                  "`repro obs watch`)\n" % args.snapshot_out)
    return 0


def _cmd_synth(args, out):
    """``repro synth list/show/emit``: the procedural bug synthesizer."""
    import os

    from repro.bugs import synth

    if args.synth_command == "list":
        for name in synth.population_names(args.n, seed=args.seed,
                                           kind=args.kind):
            out.write(name + "\n")
        return 0
    if args.synth_command == "show":
        bug = synth.make_benchmark(synth.SynthSpec.from_name(args.name))
        out.write(bug.spec.describe() + "\n")
        out.write("root cause line: %d   patch line: %d\n"
                  % (bug.root_cause_lines[0], bug.patch_lines[0]))
        out.write("failing args: %s   passing args: %s\n"
                  % (bug.failing_args, bug.passing_args))
        out.write("\n")
        source = bug.patched_source if args.patched else bug.source
        out.write(source)
        return 0
    # emit
    names = list(args.names) or synth.population_names(
        args.n, seed=args.seed, kind=args.kind)
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        bug = synth.make_benchmark(synth.SynthSpec.from_name(name))
        for suffix, text in ((".c", bug.source),
                             (".patched.c", bug.patched_source)):
            with open(os.path.join(args.out, name + suffix), "w") \
                    as handle:
                handle.write(text)
    out.write("%d workloads (%d files) written to %s\n"
              % (len(names), 2 * len(names), args.out))
    return 0


def _cmd_experiments(_args, out):
    for name in sorted(_experiment_registry()):
        out.write(name + "\n")
    return 0


def _cmd_experiment(args, out):
    registry = _experiment_registry()
    if args.name != "all" and args.name not in registry:
        out.write("unknown experiment %r; try: all, %s\n"
                  % (args.name, ", ".join(sorted(registry))))
        return 1
    names = sorted(registry) if args.name == "all" else [args.name]
    with _campaign_session(args, out) as executor:
        for index, name in enumerate(names):
            if name == "curves" and args.name == "curves":
                # Invoked by name: honor the sweep flags.  Under
                # `experiment all` the registry's fixed smoke sweep
                # runs instead, keeping `all` fast.
                from repro.experiments import curves

                kwargs = dict(knob=args.knob, points=args.points,
                              per_point=args.per_point, seed=args.seed)
                if args.baseline_runs is not None:
                    kwargs["baseline_runs"] = args.baseline_runs
                result = curves.run(executor=executor, **kwargs)
            else:
                result = registry[name](executor=executor)
            if index:
                out.write("\n")
            out.write(result.format() + "\n")
    _write_stats(executor, out)
    return 0


def _cmd_resume(args, out):
    """List or re-dispatch interrupted ``--checkpoint`` sessions.

    A resumed command runs with the session's *stored* (normalized)
    argv plus the checkpoint flags — chaos flags are deliberately not
    stored, so the fault schedule that interrupted a run never re-arms
    on resume.  Campaign streams then replay their journals and the
    final output is byte-identical to an uninterrupted run.
    """
    from repro.runtime import checkpoint

    root = checkpoint.resolve_checkpoint_dir(args.checkpoint_dir)
    sessions = checkpoint.list_sessions(root)
    if args.list or (not args.session and not args.last):
        if not sessions:
            out.write("no resumable sessions under %s\n" % root)
            return 0 if args.list else 1
        for info in sessions:
            out.write("%s  %s\n" % (info["session_id"], info["command"]))
        return 0
    if args.last:
        if not sessions:
            out.write("no resumable sessions under %s\n" % root)
            return 1
        info = sessions[-1]
    else:
        matches = [item for item in sessions
                   if item["session_id"].startswith(args.session)]
        if not matches:
            out.write("no checkpoint session matching %r under %s\n"
                      % (args.session, root))
            return 1
        if len(matches) > 1:
            out.write("ambiguous session %r: matches %s\n"
                      % (args.session,
                         ", ".join(item["session_id"]
                                   for item in matches)))
            return 1
        info = matches[0]
    print("repro: resuming session %s: repro %s"
          % (info["session_id"], " ".join(info["argv"])),
          file=sys.stderr)
    argv = list(info["argv"]) + ["--checkpoint",
                                 "--checkpoint-dir", root]
    return main(argv, out)


def _cmd_ledger(args, out):
    import os

    from repro.obs.ledger import Ledger, resolve_ledger_dir

    if args.ledger_command == "path":
        directory = resolve_ledger_dir(args.ledger_dir)
        entries = Ledger(directory).entries()
        out.write("%s\n" % os.path.abspath(directory))
        out.write("%d entries recorded\n" % len(entries))
        return 0
    return 1                        # pragma: no cover (argparse gates)


def _cmd_obs(args, out):
    handlers = {
        "report": _cmd_obs_report,
        "flame": _cmd_obs_flame,
        "explain": _cmd_obs_explain,
        "trends": _cmd_obs_trends,
        "compare": _cmd_obs_compare,
        "conformance": _cmd_obs_conformance,
        "watch": _cmd_obs_watch,
    }
    return handlers[args.obs_command](args, out)


def _cmd_obs_report(args, out):
    import json

    from repro.obs.report import NotASpanTrace, render_report_file

    try:
        out.write(render_report_file(args.trace_file, top=args.top) + "\n")
    except FileNotFoundError:
        out.write("no such trace file: %s\n" % args.trace_file)
        return 1
    except json.JSONDecodeError as exc:
        out.write("not a span trace: %s is not JSON Lines (%s)\n"
                  % (args.trace_file, exc))
        return 2
    except NotASpanTrace as exc:
        out.write("%s\n" % exc)
        return 2
    return 0


def _cmd_obs_flame(args, out):
    import json

    from repro.obs.flame import render_flame_file
    from repro.obs.report import NotASpanTrace

    try:
        out.write(render_flame_file(args.trace_file, width=args.width,
                                    folded_out=args.folded) + "\n")
    except FileNotFoundError:
        out.write("no such trace file: %s\n" % args.trace_file)
        return 1
    except json.JSONDecodeError as exc:
        out.write("not a span trace: %s is not JSON Lines (%s)\n"
                  % (args.trace_file, exc))
        return 2
    except NotASpanTrace as exc:
        out.write("%s\n" % exc)
        return 2
    if args.folded:
        out.write("folded stacks written to %s\n" % args.folded)
    return 0


def _cmd_obs_explain(args, out):
    from repro.obs.provenance import NotADiagnosisReport, explain_file

    try:
        out.write(explain_file(args.report_file, top=args.top) + "\n")
    except FileNotFoundError:
        out.write("no such report file: %s\n" % args.report_file)
        return 1
    except NotADiagnosisReport as exc:
        out.write("%s\n" % exc)
        return 2
    return 0


def _cmd_obs_trends(args, out):
    from repro.obs.ledger import Ledger, render_convergence, render_trends

    if args.view == "convergence":
        text, code = render_convergence(Ledger(args.ledger_dir))
    else:
        text, code = render_trends(
            Ledger(args.ledger_dir),
            rank_threshold=args.rank_threshold,
            latency_threshold=args.latency_threshold,
        )
    out.write(text + "\n")
    return code


def _cmd_obs_watch(args, out):
    from repro.obs.watch import watch

    return watch(args.snapshot_file, out, once=args.once,
                 interval=args.interval,
                 clear=False if args.once else None)


def _cmd_obs_compare(args, out):
    from repro.obs.ledger import Ledger, LedgerError, render_compare

    try:
        out.write(render_compare(Ledger(args.ledger_dir), args.entry_a,
                                 args.entry_b,
                                 show_same=args.show_same) + "\n")
    except LedgerError as exc:
        out.write("%s\n" % exc)
        return 1
    return 0


def _cmd_obs_conformance(args, out):
    from repro.experiments.expected import run_conformance

    with _campaign_session(args, out) as executor:
        try:
            text, code = run_conformance(args.names, executor=executor)
        except ValueError as exc:          # an unknown driver name
            out.write("%s\n" % exc)
            return 1
    out.write(text + "\n")
    return code


# ----------------------------------------------------------------------
# Shared flag groups, as argparse *parent parsers*
# ----------------------------------------------------------------------
# Each factory builds one reusable ``add_help=False`` parser holding one
# flag group; subcommands inherit groups via ``parents=flags(...)``
# instead of calling per-parser helpers, so a new command (``triage``)
# picks up the exact executor/backend/ledger/chaos surface of
# ``diagnose`` by construction.

def _flag_parent():
    return argparse.ArgumentParser(add_help=False)


def _executor_flags():
    from repro.runtime.executor import DEFAULT_CACHE_DIR

    parent = _flag_parent()
    parent.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for campaign runs (results are "
             "identical at any value; default: 1)",
    )
    parent.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="keep plan runs and baseline recordings in the on-disk "
             "run cache under --cache-dir for later invocations "
             "(repeats replay from memory either way)",
    )
    parent.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="on-disk cache location (default: %(default)s)",
    )
    return parent


def _backend_flags():
    from repro.machine.backends import BACKEND_NAMES, DEFAULT_BACKEND

    parent = _flag_parent()
    parent.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="VM execution backend (default: %s); results are "
             "bit-identical either way, the threaded backend is just "
             "faster — see docs/performance.md" % DEFAULT_BACKEND,
    )
    return parent


def _fault_flags():
    parent = _flag_parent()
    parent.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministic chaos schedule: comma-separated "
             "site[:times[:skip]] specs (e.g. worker-crash:1); see "
             "docs/resilience.md for the site registry",
    )
    parent.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for '?' skips in --inject-faults (default: 0)",
    )
    return parent


def _obs_flags():
    parent = _flag_parent()
    parent.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write the span trace as JSON Lines (enables observability)",
    )
    parent.add_argument(
        "--metrics-out", metavar="FILE.json", default=None,
        help="write the metrics snapshot `repro obs watch` reads "
             "(enables observability)",
    )
    return parent


def _durability_flags():
    parent = _flag_parent()
    parent.add_argument(
        "--checkpoint", action=argparse.BooleanOptionalAction,
        default=False,
        help="journal campaign progress under --checkpoint-dir so an "
             "interrupted invocation resumes where it stopped "
             "(`repro resume`, or re-run the same command)",
    )
    parent.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint root (default: $REPRO_CHECKPOINT_DIR or "
             ".repro-checkpoints/)",
    )
    parent.add_argument(
        "--resume", action="store_true",
        help="resume this command's previous checkpoint session "
             "(implies --checkpoint)",
    )
    parent.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="stop cleanly after SECONDS of wall time and report a "
             "partial diagnosis with a confidence summary",
    )
    parent.add_argument(
        "--run-budget", type=int, default=None, metavar="N",
        help="stop cleanly after N fresh run executions and report a "
             "partial diagnosis (journal replays are free)",
    )
    return parent


def _ledger_flags():
    parent = _flag_parent()
    parent.add_argument(
        "--ledger", action=argparse.BooleanOptionalAction, default=True,
        help="append this invocation to the persistent run ledger "
             "(default: on)",
    )
    parent.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger location (default: $REPRO_LEDGER_DIR or "
             ".repro-ledger/)",
    )
    return parent


# ----------------------------------------------------------------------
# One table of top-level commands
# ----------------------------------------------------------------------
# Each ``_add_<command>(commands, flags)`` adds one top-level command's
# subparser to *commands*; ``flags(*factories)`` returns the shared
# flag-group parents, each built once per parser.

def _add_bugs(commands, flags):
    commands.add_parser("bugs", help="list benchmark failures")


def _add_run(commands, flags):
    run_parser = commands.add_parser(
        "run", help="execute one run",
        parents=flags(_backend_flags, _obs_flags),
    )
    run_parser.add_argument("bug", type=_bug_name,
                            help="corpus bug name or synth-… name")
    run_parser.add_argument("--passing", action="store_true",
                            help="use the passing plan")


def _add_log(commands, flags):
    log_parser = commands.add_parser(
        "log", help="LBRLOG/LCRLOG report at the failure",
        parents=flags(_backend_flags, _obs_flags),
    )
    log_parser.add_argument("bug", type=_bug_name,
                            help="corpus bug name or synth-… name")
    log_parser.add_argument("--no-toggling", action="store_true")
    log_parser.add_argument(
        "--tool", default="auto", choices=("auto", "lbrlog", "lcrlog"),
        help="log tool ('auto' picks by bug category; default)",
    )


def _add_diagnose(commands, flags):
    from repro.core.api import available_tools

    diag_parser = commands.add_parser(
        "diagnose", help="statistical failure diagnosis",
        parents=flags(_backend_flags, _executor_flags, _obs_flags,
                      _ledger_flags, _fault_flags, _durability_flags),
    )
    diag_parser.add_argument("bug", type=_bug_name,
                             help="corpus bug name or synth-… name")
    diag_parser.add_argument(
        "--tool", default="auto",
        choices=("auto",) + tuple(available_tools()),
        help="diagnosis tool ('auto' picks LBRA/LCRA by bug category; "
             "default); choices come from the pluggable registry",
    )
    diag_parser.add_argument("--scheme", default="reactive",
                             choices=("reactive", "proactive"))
    diag_parser.add_argument("--runs", type=int, default=10)
    diag_parser.add_argument("--top", type=int, default=5)
    diag_parser.add_argument("--json", action="store_true",
                             help="also print the report as JSON")
    diag_parser.add_argument(
        "--json-out", metavar="FILE.json", default=None,
        help="write the report as pure JSON (render with "
             "`repro obs explain`)",
    )


def _add_experiments(commands, flags):
    commands.add_parser("experiments", help="list experiment names")


def _add_experiment(commands, flags):
    from repro.bugs import synth as _synth
    from repro.experiments.curves import DEFAULT_BASELINE_RUNS

    exp_parser = commands.add_parser(
        "experiment", help="regenerate one table/figure ('all' for "
                           "every one)",
        parents=flags(_backend_flags, _executor_flags, _obs_flags,
                      _ledger_flags, _fault_flags, _durability_flags),
    )
    exp_parser.add_argument("name")
    curves_flags = exp_parser.add_argument_group(
        "curves", "knob sweep over synthesized bugs (`experiment "
                  "curves` only; `experiment all` runs a fixed smoke "
                  "sweep instead)")
    curves_flags.add_argument(
        "--knob", default="propagation", choices=_synth.KNOBS,
        help="difficulty knob to sweep (default: %(default)s)",
    )
    curves_flags.add_argument(
        "--points", type=int, default=4, metavar="N",
        help="points along the knob's range (default: %(default)s)",
    )
    curves_flags.add_argument(
        "--per-point", type=int, default=25, metavar="N",
        help="synthesized bugs per point (default: %(default)s)",
    )
    curves_flags.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="population seed; the whole table is a pure function of "
             "(knob, points, per-point, seed) (default: %(default)s)",
    )
    curves_flags.add_argument(
        "--baseline-runs", type=int, default=None, metavar="N",
        help="failure+success runs each for the sampling baseline "
             "(default: the driver's, currently %d)"
             % DEFAULT_BASELINE_RUNS,
    )


def _add_triage(commands, flags):
    from repro.fleet.signature import (
        DEFAULT_DEPTH,
        DEFAULT_GRANULARITY,
        GRANULARITIES,
    )

    triage_parser = commands.add_parser(
        "triage", help="cluster a simulated fleet's failure reports by "
                       "fault signature and diagnose each cluster once",
        parents=flags(_backend_flags, _executor_flags, _obs_flags,
                      _ledger_flags, _fault_flags),
    )
    triage_parser.add_argument(
        "--reports", type=int, default=100, metavar="N",
        help="failure reports to draw from the simulated fleet "
             "(default: %(default)s)",
    )
    triage_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="fleet stream seed; the report mix — and therefore the "
             "whole triage output — is a pure function of it "
             "(default: %(default)s)",
    )
    triage_parser.add_argument(
        "--runs", type=int, default=10, metavar="N",
        help="failure and success runs per cluster campaign "
             "(default: %(default)s)",
    )
    triage_parser.add_argument(
        "--depth", type=int, default=DEFAULT_DEPTH, metavar="N",
        help="ring entries folded into the fault signature "
             "(default: %(default)s)",
    )
    triage_parser.add_argument(
        "--granularity", default=DEFAULT_GRANULARITY,
        choices=GRANULARITIES,
        help="signature shape granularity (default: %(default)s)",
    )
    population = triage_parser.add_mutually_exclusive_group()
    population.add_argument(
        "--bugs", nargs="+", default=None, metavar="BUG",
        type=_bug_name,
        help="restrict the fleet population to these bugs — corpus or "
             "synth-… names (default: all 31)",
    )
    population.add_argument(
        "--synth", type=int, default=None, metavar="N",
        help="replace the corpus population with N synthesized bugs "
             "drawn from the seeded mixed population of "
             "repro.bugs.synth (uses --seed)",
    )
    triage_parser.add_argument(
        "--snapshot-out", metavar="FILE.json", default=None,
        help="publish a live telemetry snapshot here (atomically, "
             "after diagnosed clusters, at most once per `repro obs "
             "watch` poll interval, and complete at the end); tail it "
             "with `repro obs watch` (enables observability)",
    )


def _add_synth(commands, flags):
    synth_parser = commands.add_parser(
        "synth", help="procedural bug synthesizer: list, inspect, or "
                      "emit seeded synthetic workloads",
    )
    synth_commands = synth_parser.add_subparsers(dest="synth_command",
                                                 required=True)
    synth_list = synth_commands.add_parser(
        "list", help="list a seeded population of synthetic bug names",
    )
    synth_show = synth_commands.add_parser(
        "show", help="show one synthetic workload: spec, anchors, "
                     "and generated MiniC source",
    )
    synth_show.add_argument("name", type=_synth_name,
                            help="synth-… name (see `repro synth list`)")
    synth_show.add_argument("--patched", action="store_true",
                            help="show the patched source instead")
    synth_emit = synth_commands.add_parser(
        "emit", help="write generated MiniC sources to a directory",
    )
    synth_emit.add_argument(
        "names", nargs="*", type=_synth_name, metavar="NAME",
        help="synth-… names to emit (default: a seeded population)",
    )
    synth_emit.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory to write <name>.c (and <name>.patched.c) into",
    )
    for sub in (synth_list, synth_emit):
        sub.add_argument(
            "--n", type=int, default=10, metavar="N",
            help="population size (default: %(default)s)",
        )
        sub.add_argument(
            "--seed", type=int, default=0, metavar="S",
            help="population seed (default: %(default)s)",
        )
        sub.add_argument(
            "--kind", default="mix", choices=("mix", "seq", "conc"),
            help="population mix: sequential, concurrency, or the "
                 "corpus-shaped blend (default: %(default)s)",
        )


def _add_resume(commands, flags):
    resume_parser = commands.add_parser(
        "resume", help="resume an interrupted --checkpoint invocation"
    )
    resume_parser.add_argument(
        "session", nargs="?", default=None, metavar="SESSION",
        help="session id (unique prefix ok); omit to list sessions",
    )
    resume_parser.add_argument(
        "--last", action="store_true",
        help="resume the most recently created session",
    )
    resume_parser.add_argument(
        "--list", action="store_true",
        help="list resumable sessions and exit",
    )
    resume_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint root (default: $REPRO_CHECKPOINT_DIR or "
             ".repro-checkpoints/)",
    )


def _add_ledger(commands, flags):
    ledger_parser = commands.add_parser(
        "ledger", help="inspect the persistent run ledger"
    )
    ledger_commands = ledger_parser.add_subparsers(dest="ledger_command",
                                                   required=True)
    ledger_path_parser = ledger_commands.add_parser(
        "path", help="print the resolved ledger location and entry count"
    )
    ledger_path_parser.add_argument("--ledger-dir", default=None,
                                    metavar="DIR")


def _add_obs(commands, flags):
    from repro.obs.watch import DEFAULT_INTERVAL

    obs_parser = commands.add_parser(
        "obs", help="inspect observability output"
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command",
                                             required=True)
    report_parser = obs_commands.add_parser(
        "report", help="per-phase breakdown of a --trace file"
    )
    report_parser.add_argument("trace_file", metavar="trace.jsonl")
    report_parser.add_argument("--top", type=int, default=None,
                               help="show only the N slowest phases")

    flame_parser = obs_commands.add_parser(
        "flame", help="folded-stack text flame view of a --trace file"
    )
    flame_parser.add_argument("trace_file", metavar="trace.jsonl")
    flame_parser.add_argument("--width", type=int, default=60,
                              help="bar width in characters "
                                   "(default: %(default)s)")
    flame_parser.add_argument(
        "--folded", metavar="FILE", default=None,
        help="also write canonical folded 'stack value' lines to FILE",
    )

    explain_parser = obs_commands.add_parser(
        "explain", help="per-event provenance of a diagnosis report "
                        "(produce one with `repro diagnose --json-out`)"
    )
    explain_parser.add_argument("report_file", metavar="report.json")
    explain_parser.add_argument("--top", type=int, default=None,
                                help="show only the N best events")

    trends_parser = obs_commands.add_parser(
        "trends", help="quality/latency deltas across ledger entries "
                       "(non-zero exit on regression)"
    )
    trends_parser.add_argument("--ledger-dir", default=None,
                               metavar="DIR")
    trends_parser.add_argument(
        "--view", default="series", choices=("series", "convergence"),
        help="'series' compares latest-vs-previous per ledger series; "
             "'convergence' shows per-signature rank convergence from "
             "`repro triage` entries (default: %(default)s)",
    )
    trends_parser.add_argument(
        "--rank-threshold", type=int, default=0, metavar="N",
        help="tolerate the root-cause rank worsening by up to N "
             "(default: %(default)s)",
    )
    trends_parser.add_argument(
        "--latency-threshold", type=float, default=None, metavar="PCT",
        help="also flag wall time grown by more than PCT%% "
             "(default: latency never gates)",
    )

    watch_parser = obs_commands.add_parser(
        "watch", help="self-refreshing terminal dashboard over a live "
                      "telemetry snapshot (`repro triage "
                      "--snapshot-out`)"
    )
    watch_parser.add_argument("snapshot_file", metavar="snapshot.json")
    watch_parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no live loop)",
    )
    watch_parser.add_argument(
        "--interval", type=_poll_interval, default=DEFAULT_INTERVAL,
        metavar="SECONDS",
        help="refresh poll interval (default: %(default)s)",
    )

    compare_parser = obs_commands.add_parser(
        "compare", help="structured diff of two ledger entries"
    )
    compare_parser.add_argument("entry_a", metavar="A",
                                help="@N sequence ref or entry-id prefix")
    compare_parser.add_argument("entry_b", metavar="B")
    compare_parser.add_argument("--ledger-dir", default=None,
                                metavar="DIR")
    compare_parser.add_argument("--show-same", action="store_true",
                                help="also list identical fields")

    conformance_parser = obs_commands.add_parser(
        "conformance", help="re-run experiment drivers and check their "
                            "output against the pinned paper tables",
        parents=flags(_backend_flags, _executor_flags, _ledger_flags,
                      _fault_flags),
    )
    conformance_parser.add_argument(
        "names", nargs="*", default=["table5"], metavar="table",
        help="drivers to check: table5, table6, table7 "
             "(default: table5)",
    )


#: Each top-level command, in help order -> (the function adding its
#: subparser, the function running it).
_COMMANDS = {
    "bugs": (_add_bugs, _cmd_bugs),
    "run": (_add_run, _cmd_run),
    "log": (_add_log, _cmd_log),
    "diagnose": (_add_diagnose, _cmd_diagnose),
    "experiments": (_add_experiments, _cmd_experiments),
    "experiment": (_add_experiment, _cmd_experiment),
    "triage": (_add_triage, _cmd_triage),
    "synth": (_add_synth, _cmd_synth),
    "resume": (_add_resume, _cmd_resume),
    "ledger": (_add_ledger, _cmd_ledger),
    "obs": (_add_obs, _cmd_obs),
}


def build_parser(command=None):
    """The ``repro`` argument parser, with every top-level command or
    only *command*.

    A one-command parser parses that command's lines as the full one
    does, and its errors print the same usage line; ``main`` builds only
    the command it runs.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Short-term-memory failure diagnosis (ASPLOS 2014 "
                    "reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version="repro " + _version())
    commands = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS),
    )
    built = {}

    def flags(*factories):
        for factory in factories:
            if factory not in built:
                built[factory] = factory()
        return [built[factory] for factory in factories]

    for name, (add, _run) in _COMMANDS.items():
        if command in (None, name):
            add(commands, flags)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    # Build only the named command; help, version and errors without a
    # command need the full tree.
    command = raw_argv[0] if raw_argv and raw_argv[0] in _COMMANDS \
        else None
    args = build_parser(command).parse_args(raw_argv)
    # The raw command line, kept for the checkpoint-session manifest
    # (stored normalized: chaos/checkpoint flags stripped).
    args._argv = raw_argv
    from repro.runtime.checkpoint import (
        RESUMABLE_EXIT_CODE,
        CampaignInterrupted,
        pop_interrupted_session,
    )
    from repro.obs.timeseries import SnapshotNotWritten
    from repro.runtime.resilience import FaultSpecError

    try:
        return _COMMANDS[args.command][1](args, out)
    except FaultSpecError as exc:
        out.write("bad --inject-faults spec: %s\n" % exc)
        return 2
    except SnapshotNotWritten as exc:
        out.write("%s\n" % exc)
        return 1
    except BrokenPipeError:          # piped into head etc.
        return 0
    except (KeyboardInterrupt, CampaignInterrupted) as exc:
        # Ctrl-C / SIGTERM unwound through every `finally` above: pools
        # are shut down, locks released, chaos state removed, and —
        # with --checkpoint — the journals hold every consumed run.
        session_id = pop_interrupted_session()
        reason = "SIGTERM" if isinstance(exc, CampaignInterrupted) \
            else "interrupt"
        if session_id:
            print("repro: %s; resume with: repro resume %s"
                  % (reason, session_id), file=sys.stderr)
            return RESUMABLE_EXIT_CODE
        print("repro: %s" % reason, file=sys.stderr)
        return 130


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
