"""Outside-in layer tracing for the traced benchmark run.

The program under test carries no benchmark hooks.  :class:`Tracer`
wraps each layer's public entry points from here instead: class methods
are patched once on the class; a module-level function is patched in
every loaded ``repro`` module that bound the name.  A timed wrapper
records a span (id, parent id, command index, layer, start, end) in
memory and charges the layer its *self* time: the call's duration minus
the time spent in wrapped calls nested inside it.  ``other_s`` is the
traced wall time no wrapper covered, so the layer self times plus
``other_s`` add up to the traced wall time.
"""

import functools
import importlib
import itertools
import pkgutil
import sys
import time
from collections import defaultdict

#: (layer, entry points) timed by the tracer; ``module:attr`` names a
#: module-level function, ``module:Class.method`` a method.
TIMED = (
    ("machine.build", ("repro.machine.cpu:Machine.__init__",
                       "repro.machine.cpu:Machine.load",
                       "repro.machine.cpu:Machine.set_global")),
    ("machine.run", ("repro.machine.cpu:Machine.run",)),
    ("lang.parse", ("repro.lang.parser:parse",)),
    ("lang.transform", ("repro.lang.transform:enhance_logging",)),
    ("compiler.compile", ("repro.compiler.frontend:compile_module",
                          "repro.compiler.frontend:compile_source")),
    ("runtime.fingerprint", ("repro.runtime.executor:fingerprint_program",
                             "repro.runtime.executor:fingerprint_plan",
                             "repro.runtime.executor:fingerprint_config",
                             "repro.runtime.executor:fingerprint_workload")),
    ("runtime.cache_get", ("repro.runtime.executor:RunCache.get",)),
    ("runtime.cache_put", ("repro.runtime.executor:RunCache.put",)),
    ("obs.ledger_append", ("repro.obs.ledger:Ledger.append",)),
    ("obs.snapshot", ("repro.obs.timeseries:build_snapshot",
                      "repro.obs.timeseries:publish_snapshot")),
    ("core.profile", ("repro.core.profiles:extract_profile",)),
    ("core.rank", ("repro.core.statistics:rank_predictors",)),
    ("baselines.rank", ("repro.baselines.scoring:liblit_rank",)),
    ("fleet.signature", ("repro.fleet.signature:extract_signature",)),
    ("fleet.ranker", ("repro.fleet.aggregate:IncrementalRanker.add",
                      "repro.fleet.aggregate:IncrementalRanker.add_failure",
                      "repro.fleet.aggregate:IncrementalRanker.add_success",
                      "repro.fleet.aggregate:IncrementalRanker.ranking",
                      "repro.fleet.aggregate:IncrementalRanker.rank_of")),
    ("bugs.synth", ("repro.bugs.synth:population",
                    "repro.bugs.synth:make_benchmark_class")),
)

#: every layer prefix that gets an ``<layer>.errors`` count
LAYERS = ("machine", "lang", "compiler", "runtime", "obs", "core",
          "baselines", "fleet", "bugs")

#: per-layer counts reported as metrics
COUNTS = (
    "machine.builds", "machine.runs", "machine.retired",
    "cache.bus_transactions", "cache.invalidations",
    "hwpmu.lbr_records", "hwpmu.lcr_records", "kernel.context_switches",
    "compiler.compiles", "obs.ledger_appends",
) + tuple(layer + ".errors" for layer in LAYERS)

#: metrics that are a pure function of the workload's inputs; two traced
#: runs of one seed must report them identically
DETERMINISTIC = COUNTS + ("runtime.cache_hit_ratio", "core.useful_run_ratio",
                          "fleet.report_ratio")


def _resolve(target):
    """``(owner, attribute, original)`` for one ``module:attr`` name."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


def _import_all():
    """Import every ``repro`` module, so each binding can be found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class Tracer:
    """Span recorder and layer accounting for one traced batch."""

    def __init__(self):
        self._patched = []            # (owner, attribute, original)
        self._stack = []              # open frames: [child_s, span_id]
        self._span_ids = itertools.count()
        self._campaigns = 0           # open LBRA/LCRA campaigns
        self._streams = 0             # open fleet report streams
        self.command = -1
        self.reset()

    def reset(self):
        """Forget everything recorded so far (after the warm-up)."""
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- wrappers -------------------------------------------------------

    def _timed(self, layer, original, after=None):
        errors = layer.split(".")[0] + ".errors"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(self._span_ids)]
            start = clock()
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counts[errors] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                self.spans.append((
                    frame[1], parent[1] if parent is not None else None,
                    self.command, layer, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, layer, original, before=None, after=None):
        """Wrap *original* without a span: counts only, no self time."""
        errors = layer + ".errors"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = None
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counts[errors] += 1
                raise
            finally:
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    def _patch(self, target, make_wrapper):
        owner, attribute, original = _resolve(target)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)

    # -- per-layer counts ---------------------------------------------

    def _after_build(self, args, _result):
        self.counts["machine.builds"] += 1

    def _after_run(self, args, status):
        machine = args[0]
        counts = self.counts
        counts["machine.runs"] += 1
        counts["machine.retired"] += status.retired
        counts["cache.bus_transactions"] += machine.bus.transaction_count
        counts["cache.invalidations"] += machine.bus.invalidation_count
        counts["kernel.context_switches"] += machine.context_switches
        for core in machine.cores:
            counts["hwpmu.lbr_records"] += core.lbr.recorded_count
            counts["hwpmu.lcr_records"] += core.lcr.recorded_count

    def _after_compile(self, _args, _result):
        self.counts["compiler.compiles"] += 1

    def _after_cache_get(self, _args, entry):
        from repro.runtime.executor import RunCache

        self.counts["runtime.cache_gets"] += 1
        if not RunCache.is_miss(entry):
            self.counts["runtime.cache_hits"] += 1

    def _after_append(self, _args, _result):
        self.counts["obs.ledger_appends"] += 1

    def _campaign_enter(self):
        self._campaigns += 1

    def _campaign_exit(self, _args, diagnosis):
        self._campaigns -= 1
        if diagnosis is not None:
            self.counts["core.useful_runs"] += (
                diagnosis.n_failure_profiles + diagnosis.n_success_profiles)

    def _campaign_attempt(self, _args, _result):
        if self._campaigns:
            self.counts["core.attempted_runs"] += 1

    def _counting_iter_runs(self, original):
        tracer = self

        @functools.wraps(original)
        def iter_runs(*args, **kwargs):
            for item in original(*args, **kwargs):
                if tracer._campaigns:
                    tracer.counts["core.attempted_runs"] += 1
                yield item

        return iter_runs

    def _stream_enter(self):
        self._streams += 1

    def _stream_exit(self, _args, reports):
        self._streams -= 1
        if reports is not None:
            self.counts["fleet.reports"] += len(reports)

    def _stream_attempt(self, _args, _result):
        if self._streams:
            self.counts["fleet.report_attempts"] += 1

    # -- installation ---------------------------------------------------

    def install(self):
        """Import every ``repro`` module and wrap the layer entry points."""
        _import_all()
        after = {
            "repro.machine.cpu:Machine.__init__": self._after_build,
            "repro.machine.cpu:Machine.run": self._after_run,
            "repro.compiler.frontend:compile_module": self._after_compile,
            "repro.runtime.executor:RunCache.get": self._after_cache_get,
            "repro.obs.ledger:Ledger.append": self._after_append,
        }
        for layer, targets in TIMED:
            for target in targets:
                self._patch(target, functools.partial(
                    self._timed, layer, after=after.get(target)))
        counted = (
            ("repro.core.lbra:DiagnosisToolBase.run_diagnosis", "core",
             self._campaign_enter, self._campaign_exit),
            ("repro.runtime.process:run_program", "runtime", None,
             self._campaign_attempt),
            ("repro.runtime.executor:CampaignExecutor.run_one", "runtime",
             None, self._campaign_attempt),
            ("repro.fleet.stream:FleetStream.generate", "fleet",
             self._stream_enter, self._stream_exit),
            ("repro.core.logtool:LogToolBase.run_plan", "core", None,
             self._stream_attempt),
        )
        for target, layer, before, after_hook in counted:
            self._patch(target, functools.partial(
                self._counted, layer, before=before, after=after_hook))
        self._patch("repro.runtime.executor:CampaignExecutor.iter_runs",
                    self._counting_iter_runs)
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    # -- results --------------------------------------------------------

    def metrics(self, traced_wall):
        """Every per-layer metric as ``{name: (value, unit)}``."""
        self_s, counts = self.self_s, self.counts

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        metrics = {
            "traced_wall_s": (traced_wall, "s"),
            "other_s": (traced_wall - sum(self_s.values()), "s"),
        }
        for layer, _targets in TIMED:
            metrics[layer + "_s"] = (self_s[layer], "s")
        metrics["machine.instr_per_s"] = (
            ratio(counts["machine.retired"], self_s["machine.run"]), "1/s")
        for name in COUNTS:
            metrics[name] = (counts[name], "count")
        metrics["runtime.cache_hit_ratio"] = (
            ratio(counts["runtime.cache_hits"], counts["runtime.cache_gets"]),
            "ratio")
        metrics["core.useful_run_ratio"] = (
            ratio(counts["core.useful_runs"], counts["core.attempted_runs"]),
            "ratio")
        metrics["fleet.report_ratio"] = (
            ratio(counts["fleet.reports"], counts["fleet.report_attempts"]),
            "ratio")
        return metrics
