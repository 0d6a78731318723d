"""Accuracy curves over synthetic bug populations (ROADMAP item 3).

The paper's Tables 6/7 report diagnosis accuracy at 31 fixed points.
This driver turns accuracy into a *function of bug difficulty*: it
sweeps one synthesizer knob (:mod:`repro.bugs.synth`) across seeded
populations and reports, per knob value, how the rank of the true root
cause degrades — for the paper's tool (LBRA on sequential knobs, LCRA
on the concurrency ``window`` knob) and for a baseline resolved
through the same pluggable registry (CBI / CCI).

Determinism: the populations are pure functions of ``(knob, points,
per_point, seed)``, every diagnosis is a deterministic campaign, and
the table is therefore byte-identical on either VM backend and at any
cache state.  Each
(bug, tool) cell lands in the run ledger as its own content-keyed
entry (``run_diagnosis`` records it), and the finished table is
recorded by ``@traced`` like every other driver.
"""

from repro.bugs import synth
from repro.core.api import get_tool
from repro.core.lbra import DiagnosisError
from repro.experiments.report import ExperimentResult, traced

#: diagnosis tools per knob kind: (paper tool, baseline tool)
TOOLS = {
    "seq": ("lbra", "cbi"),
    "conc": ("lcra", "cci"),
}

#: campaign sizes — the paper tools converge with few runs; the
#: sampling baselines need more to observe anything at 1/100 rate
PAPER_RUNS = 6
DEFAULT_BASELINE_RUNS = 400

#: a rank beyond any plausible ring is reported as a miss
MISS = "-"


def _rank(bug, tool_name, runs, executor=None):
    """Rank of the true root cause under one tool, or None on a miss."""
    try:
        report = get_tool(tool_name)(bug, executor=executor) \
            .run_diagnosis(runs, runs)
    except DiagnosisError:
        return None
    if tool_name == "lcra":
        return report.rank_of_coherence(
            bug.root_cause_lines,
            getattr(bug, "fpe_state_tags", None),
        )
    if tool_name == "cci":
        # CCI's failure-predicting predicate is the remote-flavored
        # access, as in the Section 7.3 comparison.
        return report.rank_of_line(bug.root_cause_lines,
                                   detail_suffix="remote")
    return report.rank_of_line(bug.root_cause_lines)


def _cell(ranks):
    """Aggregate one (knob value, tool) population of ranks."""
    n = len(ranks)
    hits = [r for r in ranks if r is not None]
    top1 = sum(1 for r in hits if r == 1)
    if hits:
        hits.sort()
        mid = len(hits) // 2
        if len(hits) % 2:
            median = "%d" % hits[mid]
        else:
            median = "%.1f" % ((hits[mid - 1] + hits[mid]) / 2.0)
    else:
        median = MISS
    return {
        "top1": "%d%%" % round(100.0 * top1 / n),
        "median": median,
        "miss": "%d%%" % round(100.0 * (n - len(hits)) / n),
    }


@traced("experiment.curves")
def run(knob="propagation", points=4, per_point=25, seed=0,
        baseline_runs=DEFAULT_BASELINE_RUNS, executor=None):
    """Sweep *knob* over *points* values, *per_point* bugs per value.

    Returns an :class:`ExperimentResult` whose rows give, per knob
    value, the top-1 rate, median rank, and miss rate of the true root
    cause for the paper tool and the baseline, plus a text curve of
    the paper tool's top-1 rate in the notes.
    """
    values = synth.knob_values(knob, points)
    grid = synth.sweep_specs(knob, values, per_point, seed=seed)
    kind = synth.KNOB_KIND[knob]
    paper_tool, baseline_tool = TOOLS[kind]
    rows = []
    curve = []
    for value in values:
        bugs = [synth.make_benchmark(spec) for spec in grid[value]]
        paper_ranks = [_rank(bug, paper_tool, PAPER_RUNS,
                             executor=executor) for bug in bugs]
        base_ranks = [_rank(bug, baseline_tool, baseline_runs,
                            executor=executor) for bug in bugs]
        paper = _cell(paper_ranks)
        base = _cell(base_ranks)
        rows.append([
            value, len(bugs),
            paper["top1"], paper["median"], paper["miss"],
            base["top1"], base["median"], base["miss"],
        ])
        curve.append((value, paper["top1"]))
    up = paper_tool.upper()
    bup = baseline_tool.upper()
    width = 25
    plot = []
    for value, top1 in curve:
        frac = int(top1.rstrip("%")) / 100.0
        bar = "#" * int(round(frac * width))
        plot.append("%s=%-3d |%-*s| %s" % (knob, value, width, bar, top1))
    return ExperimentResult(
        name="curves",
        headers=["%s" % knob, "bugs",
                 "%s top-1" % up, "%s median" % up, "%s miss" % up,
                 "%s top-1" % bup, "%s median" % bup, "%s miss" % bup],
        rows=rows,
        title="Rank of the true root cause vs. %s "
              "(%d synthetic bugs, seed %d)"
              % (knob, points * per_point, seed),
        notes=[
            "knob semantics and generation grammar: docs/synth.md",
            "%s top-1 rate:" % up,
        ] + plot,
    )
