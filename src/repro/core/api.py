"""The unified diagnosis-tool API.

Every diagnosis tool in this repository — the paper's LBRA/LCRA and the
CBI-family baselines it is evaluated against — answers the same
question ("which events predict the failure?") but historically grew its
own constructor signature and result type.  This module unifies them:

* :func:`validate_options` — shared constructor-keyword validation; a
  tool declares the options it accepts (with defaults) and anything
  else raises a :class:`TypeError` listing the accepted set, so e.g.
  passing ``lcr_selector`` to the LBR-based tool fails loudly instead
  of being silently ignored.
* :class:`DiagnosisReport` — one serializable result shape: ranked
  events as plain dicts, run counts, campaign stats, and timings, with
  ``to_dict()`` / ``to_json()``.  The native result object (a
  :class:`~repro.core.lbra.Diagnosis` or
  :class:`~repro.baselines.base.BaselineDiagnosis`) stays reachable as
  ``report.raw`` and its convenience accessors delegate.
* :class:`DiagnosisTool` — the protocol adapter: uniform constructor
  ``Tool(workload, *, executor=None, obs=None, seed=0, **options)`` and
  a ``run_diagnosis(...) -> DiagnosisReport`` method.
* :func:`register_tool` / :func:`get_tool` / :func:`get_log_tool` — the
  pluggable tool registry.  The built-in tools (``"lbra"``, ``"lcra"``,
  ``"cbi"``, ``"cci"``, ``"pbi"``; log tools ``"lbrlog"``, ``"lcrlog"``)
  self-register at import time; drivers, the fleet triage dispatcher
  (:mod:`repro.fleet.triage`), and the CLI select tools by name instead
  of by import, and new diagnosis approaches plug in without editing
  this module::

      from repro.core.api import DiagnosisTool, register_tool

      class PeckerDiagnosisTool(DiagnosisTool):
          name = "pecker"
          _impl = ("mypkg.pecker", "PeckerTool")   # lazily imported
          default_runs = 10

      register_tool("pecker", PeckerDiagnosisTool)
      # get_tool("pecker"), available_tools(), `repro diagnose --tool`
      # choices, and fleet triage dispatch now all see it.

The underlying tool classes keep working directly; their entry point,
like the adapter's, is ``run_diagnosis()``.
"""

import importlib
import json
import time
from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# Constructor-option validation
# ----------------------------------------------------------------------

def validate_options(tool_name, accepted, options):
    """Merge *options* over the *accepted* ``{name: default}`` mapping.

    Raises :class:`TypeError` naming the offending keyword and listing
    every accepted option, so a mis-spelled (or wrong-tool) keyword
    fails at construction time instead of being silently dropped.
    """
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise TypeError(
            "%s got unexpected option(s) %s; accepted options: %s" % (
                tool_name, ", ".join(repr(name) for name in unknown),
                ", ".join(sorted(accepted)),
            )
        )
    merged = dict(accepted)
    merged.update(options)
    return merged


# ----------------------------------------------------------------------
# Confidence under graceful degradation
# ----------------------------------------------------------------------

def confidence_summary(got_failures, want_failures, got_successes,
                       want_successes, ranked):
    """How much to trust a (possibly partial) diagnosis, as plain data.

    Campaigns cut short by ``--deadline``/``--run-budget`` report the
    evidence they did collect instead of raising (see
    :mod:`repro.runtime.checkpoint`); this summary makes the resulting
    trust level explicit.  ``evidence`` is the fraction of requested
    profiles actually collected (failure/success sides averaged);
    ``separation`` is the best event's F-score — how cleanly the top
    predictor separates failing from passing runs with the evidence at
    hand.  ``level`` buckets the product: "high" (≥0.75), "medium"
    (≥0.4), "low" (>0), "none" (no ranked events at all).
    """
    def fraction(got, want):
        if not want:
            return 1.0
        return min(1.0, got / want)

    evidence = (fraction(got_failures, want_failures)
                + fraction(got_successes, want_successes)) / 2.0
    best = ranked[0] if ranked else None
    separation = getattr(best, "f_score", None) if best is not None \
        else None
    if separation is None and best is not None:
        separation = getattr(best, "importance", 0.0)
    score = evidence * (separation if separation is not None else 0.0)
    if best is None:
        level = "none"
    elif score >= 0.75:
        level = "high"
    elif score >= 0.4:
        level = "medium"
    else:
        level = "low"
    return {
        "level": level,
        "score": round(score, 4),
        "evidence": round(evidence, 4),
        "separation": round(separation, 4)
        if separation is not None else None,
        "failures": {"got": got_failures, "want": want_failures},
        "successes": {"got": got_successes, "want": want_successes},
        "events_ranked": len(ranked),
    }


# ----------------------------------------------------------------------
# The unified report
# ----------------------------------------------------------------------

def _normalize_ranked(ranked):
    """Ranked rows (PredictorScore or ScoredPredicate) as plain dicts.

    Every row carries its ``provenance`` dict (supporting/opposing run
    ids and the precision/recall component pairs, see
    :mod:`repro.obs.provenance`) when the scorer recorded one.
    """
    rows = []
    for score in ranked:
        event = getattr(score, "event", None)
        provenance = getattr(score, "provenance", None)
        if event is not None:            # core PredictorScore
            row = {
                "rank": score.rank,
                "event_id": event.event_id,
                "kind": event.kind,
                "function": event.function,
                "line": event.line,
                "detail": event.detail,
                "precision": score.precision,
                "recall": score.recall,
                "f_score": score.f_score,
                "failure_hits": score.failure_hits,
                "success_hits": score.success_hits,
            }
        else:                            # baseline ScoredPredicate
            row = {
                "rank": score.rank,
                "predicate_id": score.predicate_id,
                "site": score.site_id,
                "function": score.function,
                "line": score.line,
                "detail": score.detail,
                "importance": score.importance,
                "increase": score.increase,
                "failure_true": score.failure_true,
                "success_true": score.success_true,
            }
        row["provenance"] = provenance.to_dict() if provenance is not None \
            else None
        rows.append(row)
    return rows


@dataclass
class DiagnosisReport:
    """Uniform, JSON-serializable result of one diagnosis campaign.

    ``raw`` holds the tool's native result object for callers that need
    tool-specific detail; it is excluded from serialization.
    """

    tool: str
    workload: str
    ranked: list                       # plain dicts, best first
    runs_used: dict                    # {"failures": n, "successes": n}
    campaign: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    #: True when the campaign was cut short by a deadline/run budget;
    #: ``stop_reason`` says which and ``confidence`` carries the
    #: :func:`confidence_summary` of the evidence actually collected.
    partial: bool = False
    stop_reason: str = None
    confidence: dict = None
    raw: object = None

    def to_dict(self):
        data = {
            "tool": self.tool,
            "workload": self.workload,
            "ranked": self.ranked,
            "runs_used": self.runs_used,
            "campaign": self.campaign,
            "timings": self.timings,
            "params": self.params,
        }
        if self.partial:
            data["partial"] = True
            data["stop_reason"] = self.stop_reason
            data["confidence"] = self.confidence
        return data

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- delegating conveniences ----------------------------------------

    def describe(self, n=5):
        return self.raw.describe(n)

    def top(self, n=5):
        return self.raw.top(n)

    def best(self):
        return self.raw.best()

    def rank_of_line(self, lines, *args, **kwargs):
        return self.raw.rank_of_line(lines, *args, **kwargs)

    def rank_of_coherence(self, lines, *args, **kwargs):
        return self.raw.rank_of_coherence(lines, *args, **kwargs)


# ----------------------------------------------------------------------
# The protocol adapters
# ----------------------------------------------------------------------

class DiagnosisTool:
    """Uniform front for one underlying diagnosis tool.

    Subclasses (built by :func:`get_tool`) bind ``name``, the
    implementation class, and the default campaign size.  Constructor
    keywords beyond the common four (``executor``, ``obs``, ``seed``,
    plus the workload argument) pass through to — and are validated
    by — the underlying tool.
    """

    name = None
    _impl = None                       # ("module", "ClassName")
    default_runs = 10

    def __init__(self, workload, *, executor=None, obs=None, seed=0,
                 **options):
        module = importlib.import_module(self._impl[0])
        impl_class = getattr(module, self._impl[1])
        self.workload = workload
        self.tool = impl_class(workload, executor=executor, obs=obs,
                               seed=seed, **options)
        self.params = dict(options, seed=seed)

    def run_diagnosis(self, n_failures=None, n_successes=None,
                      max_attempts=None):
        """Run the campaign; returns a :class:`DiagnosisReport`."""
        n_failures = n_failures if n_failures is not None \
            else self.default_runs
        n_successes = n_successes if n_successes is not None \
            else self.default_runs
        started = time.perf_counter()
        raw = self.tool.run_diagnosis(
            n_failures=n_failures, n_successes=n_successes,
            max_attempts=max_attempts,
        )
        elapsed = time.perf_counter() - started
        return self._report(raw, elapsed)

    def _report(self, raw, elapsed):
        runs_used = {
            "failures": getattr(raw, "n_failure_profiles",
                                getattr(raw, "n_failures", 0)),
            "successes": getattr(raw, "n_success_profiles",
                                 getattr(raw, "n_successes", 0)),
        }
        campaign = {}
        for attr in ("scheme", "ring", "events_observed",
                     "samples_taken", "retired_total"):
            value = getattr(raw, attr, None)
            if value is not None:
                campaign[attr] = value
        machine_config = getattr(self.tool, "machine_config", None)
        if machine_config is not None:
            # Which VM execution backend ran the campaign (see
            # repro.machine.backends).  Informational: the ranked rows
            # are backend-invariant by the equivalence contract.
            campaign["backend"] = machine_config.backend
        executor = getattr(self.tool, "executor", None)
        if executor is not None:
            campaign["executor"] = {
                "attempts": executor.stats.attempts,
                "cache_hits": executor.stats.cache_hits,
                "pool_runs": executor.stats.pool_runs,
            }
            resilience = executor.stats.resilience
            if resilience.activity:
                campaign["executor"]["resilience"] = resilience.to_dict()
        confidence = getattr(raw, "confidence", None)
        return DiagnosisReport(
            tool=self.name,
            workload=self.workload.name,
            ranked=_normalize_ranked(raw.ranked),
            runs_used=runs_used,
            campaign=campaign,
            timings={"diagnose_seconds": elapsed},
            params=self.params,
            partial=bool(getattr(raw, "partial", False)),
            stop_reason=getattr(raw, "stop_reason", None),
            confidence=confidence() if callable(confidence) else confidence,
            raw=raw,
        )


class LbraDiagnosisTool(DiagnosisTool):
    name = "lbra"
    _impl = ("repro.core.lbra", "LbraTool")
    default_runs = 10


class LcraDiagnosisTool(DiagnosisTool):
    name = "lcra"
    _impl = ("repro.core.lcra", "LcraTool")
    default_runs = 10


class CbiDiagnosisTool(DiagnosisTool):
    name = "cbi"
    _impl = ("repro.baselines.cbi", "CbiTool")
    default_runs = 1000


class CciDiagnosisTool(DiagnosisTool):
    name = "cci"
    _impl = ("repro.baselines.cci", "CciTool")
    default_runs = 1000


class PbiDiagnosisTool(DiagnosisTool):
    name = "pbi"
    _impl = ("repro.baselines.pbi", "PbiTool")
    default_runs = 1000


# ----------------------------------------------------------------------
# The pluggable tool registry
# ----------------------------------------------------------------------

#: name -> DiagnosisTool adapter class.  Mutated only through
#: :func:`register_tool` / :func:`unregister_tool`; read only through
#: :func:`get_tool` / :func:`available_tools`, so every dispatcher in
#: the repo (CLI, experiment drivers, fleet triage) sees one table.
_TOOL_REGISTRY = {}

_LOG_TOOLS = {
    "lbrlog": ("repro.core.lbrlog", "LbrLogTool"),
    "lcrlog": ("repro.core.lcrlog", "LcrLogTool"),
}


def register_tool(name, cls):
    """Register *cls* (a :class:`DiagnosisTool` subclass) as *name*.

    Registering an already-taken name replaces the previous entry —
    that is deliberate, so an experiment can shadow a built-in with an
    instrumented variant; re-registering a built-in restores it.  The
    class's ``name`` attribute is aligned with the registered name so
    reports always carry the name the tool was dispatched under.
    """
    if not isinstance(name, str) or not name:
        raise TypeError("tool name must be a non-empty string, not %r"
                        % (name,))
    if not (isinstance(cls, type) and issubclass(cls, DiagnosisTool)):
        raise TypeError(
            "register_tool expects a DiagnosisTool subclass, not %r"
            % (cls,))
    cls.name = name
    _TOOL_REGISTRY[name] = cls
    return cls


def unregister_tool(name):
    """Remove *name* from the registry (``KeyError`` when absent)."""
    del _TOOL_REGISTRY[name]


def get_tool(name):
    """The registered :class:`DiagnosisTool` adapter class for *name*.

    ``get_tool("lbra")(workload).run_diagnosis()`` is the whole API.
    Unknown names raise :class:`KeyError` listing every registered
    tool, so a typo'd ``--tool`` flag reads as a menu, not a stack
    trace.
    """
    try:
        return _TOOL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown diagnosis tool %r; registered tools: %s"
            % (name, ", ".join(sorted(_TOOL_REGISTRY)))
        ) from None


def get_log_tool(name):
    """The underlying logging-tool class for *name* (lbrlog/lcrlog)."""
    try:
        module, class_name = _LOG_TOOLS[name]
    except KeyError:
        raise ValueError(
            "unknown log tool %r; available tools: %s"
            % (name, ", ".join(sorted(_LOG_TOOLS)))
        ) from None
    return getattr(importlib.import_module(module), class_name)


def available_tools():
    """Names :func:`get_tool` accepts (the registry's keys), sorted."""
    return sorted(_TOOL_REGISTRY)


# The built-in tools self-register; competitors add themselves the same
# way (see the module docstring and ROADMAP item 4).
for _builtin in (LbraDiagnosisTool, LcraDiagnosisTool, CbiDiagnosisTool,
                 CciDiagnosisTool, PbiDiagnosisTool):
    register_tool(_builtin.name, _builtin)
del _builtin


__all__ = [
    "CbiDiagnosisTool",
    "CciDiagnosisTool",
    "DiagnosisReport",
    "DiagnosisTool",
    "LbraDiagnosisTool",
    "LcraDiagnosisTool",
    "PbiDiagnosisTool",
    "available_tools",
    "confidence_summary",
    "get_log_tool",
    "get_tool",
    "register_tool",
    "unregister_tool",
    "validate_options",
]
