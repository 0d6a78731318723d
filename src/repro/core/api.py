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
* :class:`DiagnosisResult` — the one result surface: a
  :class:`~repro.core.lbra.Diagnosis` and a
  :class:`~repro.baselines.base.BaselineDiagnosis` both answer
  ``runs_used``, ``confidence()``, ``top()`` and ``best()``, and their
  ranked rows ``key``, ``score`` and ``to_row()``.
* :func:`recorded_diagnosis` — the one campaign envelope (span,
  executor mark, wall time, ledger entry) around every LBRA, LCRA,
  CBI, CCI and PBI campaign.
* :class:`DiagnosisReport` — one serializable result shape: ranked
  events as plain dicts, run counts, campaign stats, and timings, with
  ``to_dict()`` / ``to_json()``.  The native result object stays
  reachable as ``report.raw`` and its convenience accessors delegate.
* :class:`DiagnosisTool` — the protocol adapter: uniform constructor
  ``Tool(workload, *, executor=None, seed=0, **options)`` and
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

from repro.obs import get_obs
from repro.obs.ledger import get_ledger


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
    ``separation`` is the best row's ``score`` (the F-score for
    LBRA/LCRA, the Importance for the baselines) — how cleanly the top
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
    separation = ranked[0].score if ranked else None
    score = evidence * (separation or 0.0)
    if not ranked:
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
# The result surface and the campaign envelope
# ----------------------------------------------------------------------

class DiagnosisResult:
    """What every diagnosis tool's result answers.

    A subclass is a dataclass with ``ranked`` (rows with ``rank``,
    ``key``, ``score`` and ``to_row()``), ``partial``, ``stop_reason``
    and the two requested counts.  It adds ``runs_used`` (``{"failures":
    n, "successes": n}``), ``campaign_detail`` (what
    ``DiagnosisReport.campaign`` copies) and ``rank_of_line``, and
    overrides :meth:`rank_of_cause` where its ground-truth accessor
    differs.  :func:`recorded_diagnosis` sets ``venue`` and
    ``wall_seconds``.
    """

    #: the campaign's venue record (``ExecutorStats.to_dict(since=…)``)
    venue = None
    wall_seconds = 0.0

    def confidence(self):
        """Evidence-quality summary (see :func:`confidence_summary`)."""
        runs = self.runs_used
        return confidence_summary(
            runs["failures"], self.n_failures_requested or runs["failures"],
            runs["successes"],
            self.n_successes_requested or runs["successes"],
            self.ranked,
        )

    def top(self, n=5):
        """Return the best *n* ranked rows."""
        return self.ranked[:n]

    def best(self):
        """Return the single best ranked row, or ``None``."""
        return self.ranked[0] if self.ranked else None

    def rank_of_cause(self, lines, workload):
        """Dense rank of the best row on one of *lines*, or ``None``:
        the ground-truth accessor of the run ledger."""
        return self.rank_of_line(lines)


def recorded_diagnosis(tool, name, params, run, **span_attrs):
    """Run one diagnosis campaign in the envelope every tool shares.

    ``run(obs)`` runs the campaign inside the ``diagnose.<name>`` span
    (tagged with the workload and *span_attrs*) and returns its
    :class:`DiagnosisResult`.  The result keeps the campaign's venue
    record — *tool*'s executor activity since the campaign began — and
    its wall seconds, and the current run ledger
    (:mod:`repro.obs.ledger`; a no-op unless installed) records it under
    *name* with *params*.
    """
    obs = get_obs()
    stats = tool.executor.stats
    mark = stats.mark()
    started = time.perf_counter()
    with obs.span("diagnose." + name, workload=tool.workload.name,
                  **span_attrs):
        result = run(obs)
    result.wall_seconds = time.perf_counter() - started
    result.venue = stats.to_dict(since=mark)
    get_ledger().record_diagnosis(
        tool=name,
        workload=tool.workload,
        raw=result,
        seed=tool.seed,
        params=params,
        wall_seconds=result.wall_seconds,
        executor=result.venue,
        backend=tool.machine_config.backend,
    )
    return result


# ----------------------------------------------------------------------
# The unified report
# ----------------------------------------------------------------------

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
    keywords beyond the common three (``executor``, ``seed``, plus the
    workload argument) pass through to — and are validated by — the
    underlying tool.
    """

    name = None
    _impl = None                       # ("module", "ClassName")
    default_runs = 10

    def __init__(self, workload, *, executor=None, seed=0, **options):
        module = importlib.import_module(self._impl[0])
        impl_class = getattr(module, self._impl[1])
        self.workload = workload
        self.tool = impl_class(workload, executor=executor, seed=seed,
                               **options)
        self.params = dict(options, seed=seed)

    def run_diagnosis(self, n_failures=None, n_successes=None,
                      max_attempts=None):
        """Run the campaign; returns a :class:`DiagnosisReport` whose
        ``campaign["executor"]`` describes this campaign's runs alone
        (the venue :func:`recorded_diagnosis` kept on the result)."""
        n_failures = n_failures if n_failures is not None \
            else self.default_runs
        n_successes = n_successes if n_successes is not None \
            else self.default_runs
        raw = self.tool.run_diagnosis(
            n_failures=n_failures, n_successes=n_successes,
            max_attempts=max_attempts,
        )
        return self._report(raw)

    def _report(self, raw):
        campaign = dict(raw.campaign_detail)
        # Which VM execution backend ran the campaign (see
        # repro.machine.backends).  Informational: the ranked rows are
        # backend-invariant by the equivalence contract.
        campaign["backend"] = self.tool.machine_config.backend
        campaign["executor"] = raw.venue
        return DiagnosisReport(
            tool=self.name,
            workload=self.workload.name,
            ranked=[row.to_row() for row in raw.ranked],
            runs_used=raw.runs_used,
            campaign=campaign,
            timings={"diagnose_seconds": raw.wall_seconds},
            params=self.params,
            partial=raw.partial,
            stop_reason=raw.stop_reason,
            confidence=raw.confidence(),
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
    "DiagnosisResult",
    "DiagnosisTool",
    "LbraDiagnosisTool",
    "LcraDiagnosisTool",
    "PbiDiagnosisTool",
    "available_tools",
    "confidence_summary",
    "get_log_tool",
    "get_tool",
    "recorded_diagnosis",
    "register_tool",
    "unregister_tool",
    "validate_options",
]
