"""Declarative SLOs over the telemetry time-series, with burn rates.

An SLO file is a JSON document::

    {"slos": [
      {"name": "cluster-latency", "metric": "stage.cluster.seconds",
       "quantile": 0.95, "max": 0.5},
      {"name": "ingest-throughput", "metric": "fleet.reports",
       "min_per_window": 4, "budget": 0.25},
      {"name": "convergence", "metric": "fleet.runs_to_rank1",
       "max": 12}
    ]}

Each objective names one series of a telemetry snapshot
(:mod:`repro.obs.timeseries`) and constrains it:

* a **sketch** objective (``quantile`` given) compares the sketch's
  estimated quantile against ``max``/``min`` — e.g. "p95 stage latency
  stays under 500 ms";
* a **windowed** objective (``min_per_window``/``max_per_window``)
  checks every logical-clock window of a windowed counter — e.g. "at
  least 4 reports ingested per window";
* a **gauge** objective (plain ``max``/``min``) checks every point of
  a gauge series — e.g. "every signature reaches rank 1 within 12
  runs" against the per-signature ``runs_to_rank1`` gauges (matched by
  name prefix, so one objective covers the whole label family).

Burn-rate accounting: every objective carries an error *budget* — the
fraction of evaluation points allowed to violate (default 0, a hard
gate).  The **burn rate** is ``violating_fraction / budget``; an
objective fails when the burn rate exceeds 1 (with a zero budget any
violation fails, reported as an infinite burn).  This is the standard
SRE framing: a burn rate of 2 means the service is consuming its error
budget twice as fast as allowed.

``repro obs trends --slo FILE`` evaluates objectives against a
published snapshot (``--snapshot``) or one reconstructed from the run
ledger, and exits non-zero on violation — the CI gate.
"""

import json
import math
from dataclasses import dataclass

from repro.obs.timeseries import QuantileSketch

#: Fields an SLO objective may carry.
_ALLOWED_KEYS = frozenset((
    "name", "metric", "quantile", "max", "min", "min_per_window",
    "max_per_window", "budget",
))


class SLOError(ValueError):
    """Raised for malformed SLO files and unsatisfiable objectives."""


@dataclass(frozen=True)
class SLO:
    """One declarative objective (see the module docstring)."""

    name: str
    metric: str
    quantile: float = None
    max: float = None
    min: float = None
    min_per_window: float = None
    max_per_window: float = None
    budget: float = 0.0

    @property
    def per_window(self):
        return (self.min_per_window is not None
                or self.max_per_window is not None)

    def describe(self):
        if self.quantile is not None:
            bound = "<= %g" % self.max if self.max is not None \
                else ">= %g" % self.min
            return "p%g(%s) %s" % (100.0 * self.quantile, self.metric,
                                   bound)
        if self.per_window:
            parts = []
            if self.min_per_window is not None:
                parts.append(">= %g/window" % self.min_per_window)
            if self.max_per_window is not None:
                parts.append("<= %g/window" % self.max_per_window)
            return "%s %s" % (self.metric, " and ".join(parts))
        bound = []
        if self.max is not None:
            bound.append("<= %g" % self.max)
        if self.min is not None:
            bound.append(">= %g" % self.min)
        return "%s %s" % (self.metric, " and ".join(bound))


@dataclass
class SLOResult:
    """Evaluation outcome of one objective."""

    slo: SLO
    ok: bool
    value: object                 # headline observed value (may be None)
    checked: int = 0              # evaluation points examined
    violations: int = 0
    burn_rate: float = 0.0        # inf when budget is 0 and violated
    detail: str = ""


def _parse_objective(index, raw):
    if not isinstance(raw, dict):
        raise SLOError("objective %d is %s, not an object"
                       % (index, type(raw).__name__))
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise SLOError("objective %d has unknown key(s): %s"
                       % (index, ", ".join(sorted(unknown))))
    for key in ("name", "metric"):
        if not raw.get(key) or not isinstance(raw[key], str):
            raise SLOError("objective %d lacks a %r string" % (index, key))
    for key in ("quantile", "max", "min", "min_per_window",
                "max_per_window", "budget"):
        if key in raw and not isinstance(raw[key], (int, float)):
            raise SLOError("objective %d: %r must be a number"
                           % (index, key))
    quantile = raw.get("quantile")
    if quantile is not None and not 0.0 <= quantile <= 1.0:
        raise SLOError("objective %d: quantile %r outside [0, 1]"
                       % (index, quantile))
    budget = raw.get("budget", 0.0)
    if not 0.0 <= budget < 1.0:
        raise SLOError("objective %d: budget %r outside [0, 1)"
                       % (index, budget))
    slo = SLO(name=raw["name"], metric=raw["metric"], quantile=quantile,
              max=raw.get("max"), min=raw.get("min"),
              min_per_window=raw.get("min_per_window"),
              max_per_window=raw.get("max_per_window"), budget=budget)
    if quantile is not None and slo.max is None and slo.min is None:
        raise SLOError("objective %d (%s): quantile needs max or min"
                       % (index, slo.name))
    if (slo.max is None and slo.min is None and not slo.per_window):
        raise SLOError("objective %d (%s): no bound given (max/min/"
                       "min_per_window/max_per_window)"
                       % (index, slo.name))
    return slo


def parse_slos(document):
    """Parse an SLO document (a dict) into a list of :class:`SLO`."""
    if not isinstance(document, dict) or "slos" not in document:
        raise SLOError("SLO file must be an object with an 'slos' list")
    raw_list = document["slos"]
    if not isinstance(raw_list, list) or not raw_list:
        raise SLOError("'slos' must be a non-empty list of objectives")
    return [_parse_objective(index, raw)
            for index, raw in enumerate(raw_list)]


def load_slos(path):
    """Load and validate an SLO file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SLOError("%s is not JSON (%s)" % (path, exc)) from None
    return parse_slos(document)


def _out_of_bounds(value, lower, upper):
    if lower is not None and value < lower:
        return True
    if upper is not None and value > upper:
        return True
    return False


def _burn(violations, checked, budget):
    """The burn rate; ``inf`` for a violated zero-budget objective."""
    if not checked or not violations:
        return 0.0
    fraction = violations / checked
    if budget <= 0.0:
        return math.inf
    return fraction / budget


def _sketch_values(series, metric):
    """All sketches matching *metric* (exact name or ``prefix.`` family)."""
    sketches = series.get("sketches", {})
    if metric in sketches:
        return {metric: sketches[metric]}
    prefix = metric + "."
    return {name: summary for name, summary in sketches.items()
            if name.startswith(prefix)}


def _gauge_values(series, metric):
    gauges = series.get("gauges", {})
    if metric in gauges:
        return {metric: gauges[metric]}
    prefix = metric + "."
    return {name: summary for name, summary in gauges.items()
            if name.startswith(prefix)}


def evaluate_slo(slo, snapshot):
    """Evaluate one objective against a snapshot; returns SLOResult."""
    series = snapshot.get("series", {})
    if slo.quantile is not None:
        matches = _sketch_values(series, slo.metric)
        if not matches:
            return SLOResult(slo=slo, ok=False, value=None,
                             detail="no sketch named %r in the snapshot"
                             % slo.metric)
        checked = violations = 0
        worst = None
        for name, summary in sorted(matches.items()):
            value = QuantileSketch.from_summary(summary) \
                .quantile(slo.quantile)
            if value is None:
                continue
            checked += 1
            if worst is None or (slo.max is not None and value > worst) \
                    or (slo.max is None and value < worst):
                worst = value
            if _out_of_bounds(value, slo.min, slo.max):
                violations += 1
        burn = _burn(violations, checked, slo.budget)
        return SLOResult(slo=slo, ok=burn <= 1.0, value=worst,
                         checked=checked, violations=violations,
                         burn_rate=burn,
                         detail="%d sketch(es)" % checked)
    if slo.per_window:
        summary = series.get("windowed", {}).get(slo.metric)
        if summary is None:
            return SLOResult(slo=slo, ok=False, value=None,
                             detail="no windowed series named %r"
                             % slo.metric)
        buckets = summary.get("buckets", {})
        if not buckets:
            return SLOResult(slo=slo, ok=False, value=None,
                             detail="windowed series %r is empty"
                             % slo.metric)
        # Interior windows only: the final window is usually still
        # filling when the snapshot was cut, so a min-throughput gate
        # over it would flag every healthy shutdown.
        ordered = [buckets[key] for key in
                   sorted(buckets, key=int)]
        interior = ordered[:-1] if len(ordered) > 1 else ordered
        violations = sum(
            1 for count in interior
            if _out_of_bounds(count, slo.min_per_window,
                              slo.max_per_window))
        burn = _burn(violations, len(interior), slo.budget)
        return SLOResult(slo=slo, ok=burn <= 1.0, value=min(interior),
                         checked=len(interior), violations=violations,
                         burn_rate=burn,
                         detail="%d window(s)" % len(interior))
    matches = _gauge_values(series, slo.metric)
    if not matches:
        return SLOResult(slo=slo, ok=False, value=None,
                         detail="no gauge series named %r" % slo.metric)
    checked = violations = 0
    worst = None
    for name, summary in sorted(matches.items()):
        for _tick, value in summary.get("points", ()):
            if value is None:
                # An unreached objective (e.g. runs_to_rank1 never
                # attained) violates a max bound by definition.
                checked += 1
                if slo.max is not None:
                    violations += 1
                continue
            checked += 1
            if worst is None or (slo.max is not None and value > worst) \
                    or (slo.max is None and value < worst):
                worst = value
            if _out_of_bounds(value, slo.min, slo.max):
                violations += 1
    if not checked:
        return SLOResult(slo=slo, ok=False, value=None,
                         detail="gauge series %r has no points"
                         % slo.metric)
    burn = _burn(violations, checked, slo.budget)
    return SLOResult(slo=slo, ok=burn <= 1.0, value=worst,
                     checked=checked, violations=violations,
                     burn_rate=burn, detail="%d point(s)" % checked)


def evaluate_slos(slos, snapshot):
    """Evaluate every objective; returns a list of :class:`SLOResult`."""
    return [evaluate_slo(slo, snapshot) for slo in slos]


def render_slo_report(results):
    """Render the evaluation table; returns ``(text, exit_code)``."""
    from repro.experiments.report import format_table

    rows = []
    failed = 0
    for result in results:
        if not result.ok:
            failed += 1
        if result.burn_rate == 0.0:
            burn = "0"
        elif math.isinf(result.burn_rate):
            burn = "inf"
        else:
            burn = "%.2f" % result.burn_rate
        rows.append((
            "FAIL" if not result.ok else "ok",
            result.slo.name,
            result.slo.describe(),
            "-" if result.value is None else
            ("%.4g" % result.value if isinstance(result.value, float)
             else result.value),
            "%d/%d" % (result.violations, result.checked),
            burn,
            result.detail,
        ))
    text = format_table(
        ["", "slo", "objective", "observed", "violations", "burn",
         "detail"],
        rows,
        title="SLO evaluation (%d objective%s, %d failed)"
              % (len(results), "" if len(results) == 1 else "s", failed),
    )
    if failed:
        text += "\nSLO VIOLATION: %d objective%s over budget" \
            % (failed, "" if failed == 1 else "s")
    return text, (1 if failed else 0)


__all__ = [
    "SLO",
    "SLOError",
    "SLOResult",
    "evaluate_slo",
    "evaluate_slos",
    "load_slos",
    "parse_slos",
    "render_slo_report",
]
