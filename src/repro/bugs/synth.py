"""Procedural bug synthesizer: seeded, labeled MiniC failures at scale.

The 31 hand-built miniatures (:mod:`repro.bugs`) freeze the paper's
evaluation at Tables 6/7.  This module turns the corpus into a
*population*: a deterministic generator that emits arbitrarily many
labeled :class:`~repro.bugs.base.BugBenchmark` workloads whose
difficulty is controlled by four knobs (see ``docs/synth.md``):

``propagation``
    root-cause-to-failure distance — conditional branches executed
    between the faulty branch and the failure-logging site.  Each unit
    adds one flag-forwarding stage; past ~16 the root cause falls out
    of the LBR ring and LBRLOG/LBRA must miss it (the paper's capacity
    argument, Section 4.1).
``pollution``
    library-pollution depth — the root cause is buried under N levels
    of shared helper functions whose *return-path* branches execute
    after the faulty branch, polluting the ring the way the corpus
    bugs' ``memmove``/``format_int`` calls do.
``ambiguity``
    sibling-function ambiguity — M near-identical dispatch targets of
    which exactly one is faulty.  Healthy siblings both add ring
    traffic and make passing runs oppose the root-cause event, so its
    prediction precision (and dense rank) degrades.
``window``
    interleaving-window width (concurrency kind only) — shared-state
    accesses the failure thread performs between the
    failure-predicting event and the crash; each one lands in the LCR
    after the FPE and evicts it as the window approaches ring size.

Determinism contract: every artifact — source text, anchors, run
plans, the patched source — is a pure function of the
:class:`SynthSpec` (equivalently, of the bug *name*, which round-trips
through :func:`SynthSpec.from_name`).  Generation seeds
``random.Random`` with the name string (hashed via SHA-512 internally,
stable across processes); nothing reads the clock or global RNG state.

Synthetic bugs resolve through :func:`repro.bugs.registry.get_bug`
(any ``synth-…`` name), so the executor, run cache, ledger, fleet
stream/triage, and checkpoint layers consume them unchanged.
"""

import random
import re
from dataclasses import dataclass, replace
from types import MappingProxyType

from repro.bugs.base import (
    BugBenchmark,
    FailureKind,
    RootCauseKind,
    line_of,
)

#: generator kinds ("seq" drives the LBR path, "conc" the LCR path)
KINDS = ("seq", "conc")

#: the four difficulty knobs, in canonical (name-encoding) order
KNOBS = ("propagation", "pollution", "ambiguity", "window")

#: inclusive knob ranges; the LBR/LCR rings hold 16 entries, so the
#: eviction knobs sweep from "trivially captured" past "must miss"
KNOB_RANGES = {
    "propagation": (0, 8),
    "pollution": (0, 6),
    "ambiguity": (1, 12),
    "window": (0, 20),
}

#: the kind that exercises each knob (the others stay at defaults)
KNOB_KIND = {
    "propagation": "seq",
    "pollution": "seq",
    "ambiguity": "seq",
    "window": "conc",
}

_NAME_RE = re.compile(
    r"^synth-(?P<kind>seq|conc)-p(?P<propagation>\d+)-l(?P<pollution>\d+)"
    r"-a(?P<ambiguity>\d+)-w(?P<window>\d+)-s(?P<seed>\d+)$"
)


class SynthSpecError(ValueError):
    """A synthetic-bug name or knob setting is invalid."""


@dataclass(frozen=True, order=True)
class SynthSpec:
    """The complete recipe for one synthetic bug.

    ``window`` is concurrency-only and ``propagation``/``pollution``/
    ``ambiguity`` shape the sequential template; the unused knobs must
    stay at their neutral values so that distinct names always denote
    distinct programs.
    """

    kind: str = "seq"
    propagation: int = 0
    pollution: int = 0
    ambiguity: int = 1
    window: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SynthSpecError("unknown synth kind %r" % (self.kind,))
        for knob in KNOBS:
            value = getattr(self, knob)
            low, high = KNOB_RANGES[knob]
            if not low <= value <= high:
                raise SynthSpecError(
                    "%s=%d outside [%d, %d]" % (knob, value, low, high))
        if self.seed < 0:
            raise SynthSpecError("seed must be non-negative")
        if self.kind == "seq" and self.window:
            raise SynthSpecError(
                "window is a concurrency-only knob (kind='conc')")
        if self.kind == "conc" and (self.propagation or self.pollution):
            raise SynthSpecError(
                "propagation/pollution are sequential-only knobs")

    @property
    def name(self):
        return "synth-%s-p%d-l%d-a%d-w%d-s%d" % (
            self.kind, self.propagation, self.pollution,
            self.ambiguity, self.window, self.seed,
        )

    @classmethod
    def from_name(cls, name):
        """Parse a ``synth-…`` name back into its spec (SynthSpecError
        on anything that does not round-trip)."""
        match = _NAME_RE.match(name)
        if match is None:
            raise SynthSpecError(
                "not a synthetic bug name: %r (expected "
                "synth-<kind>-p<N>-l<N>-a<N>-w<N>-s<N>)" % (name,))
        fields = {key: (value if key == "kind" else int(value))
                  for key, value in match.groupdict().items()}
        return cls(**fields)

    def with_knob(self, knob, value):
        """This spec with one knob changed (and validated)."""
        if knob not in KNOBS:
            raise SynthSpecError("unknown knob %r" % (knob,))
        return replace(self, **{knob: value})

    def describe(self):
        return "%s  kind=%s propagation=%d pollution=%d ambiguity=%d " \
            "window=%d seed=%d" % (
                self.name, self.kind, self.propagation, self.pollution,
                self.ambiguity, self.window, self.seed,
            )


def is_synth_name(name):
    """Cheap syntactic check used by the registry's lazy resolver."""
    return isinstance(name, str) and name.startswith("synth-")


def _rng(spec):
    # random.Random(str) hashes the string's bytes (SHA-512), so the
    # stream is stable across processes and interpreter runs — unlike
    # hash(), which PYTHONHASHSEED randomizes.
    return random.Random("repro.bugs.synth:" + spec.name)


# ----------------------------------------------------------------------
# Sequential template
# ----------------------------------------------------------------------
#
#   main(mode)
#     -> helper_0 -> … -> helper_{L-1}       (pollution: post-call
#                                             branches on the unwind)
#        -> dispatch -> sibling_0 … sibling_{M-1}
#                       (exactly one faulty: wrong mode comparison)
#     -> stage_0 … stage_{P-1}               (propagation: flag relay)
#     -> if (ok == 0) error(...)             (failure site)

_FAILURE_TEXT = "mode check failed"


def _sequential_sources(spec):
    rng = _rng(spec)
    m = spec.ambiguity
    faulty = rng.randrange(m)
    # The faulty sibling accepts `mode == m` (a mode no healthy sibling
    # owns) instead of its own index — the cp-bug comparison shape.
    wrong = m
    seed_a = rng.randrange(3, 9)
    seed_b = rng.randrange(10, 90)
    lines = []
    w = lines.append
    w("// %s - synthetic miniature (repro.bugs.synth)." % spec.name)
    w("// One of %d near-identical siblings tests the wrong mode; the"
      % m)
    w("// missing side effect propagates through %d stage(s) under %d"
      % (spec.propagation, spec.pollution))
    w("// shared-helper level(s) before the failure check fires.")
    w("int applied = 0;")
    w("int scratch[8];")
    for i in range(m):
        w("")
        w("int sibling_%d(int mode) {" % i)
        if i == faulty:
            w("    if (mode == %d) {               "
              "// A: root cause (== %d intended)" % (wrong, faulty))
        else:
            w("    if (mode == %d) {" % i)
        w("        applied = 1;")
        w("    }")
        w("    return 0;")
        w("}")
    w("")
    w("int dispatch(int mode) {")
    for i in range(m):
        w("    sibling_%d(mode);" % i)
    w("    return applied;")
    w("}")
    for level in range(spec.pollution):
        inner = "dispatch" if level == spec.pollution - 1 \
            else "helper_%d" % (level + 1)
        slot = rng.randrange(2, 8)
        threshold = rng.randrange(1, 7)
        w("")
        w("int helper_%d(int mode) {" % level)
        w("    int r = %s(mode);" % inner)
        w("    if (scratch[%d] > %d) {            "
          "// shared-helper bookkeeping" % (slot, threshold))
        w("        scratch[%d] = r + %d;" % (slot, rng.randrange(1, 9)))
        w("    }")
        w("    if (r < 1) {")
        w("        scratch[1] = %d;" % rng.randrange(1, 9))
        w("    }")
        w("    return r;")
        w("}")
    for stage in range(spec.propagation):
        w("")
        w("int stage_%d(int value) {" % stage)
        w("    if (value == 0) {                  "
          "// propagation stage %d" % stage)
        w("        return 0;")
        w("    }")
        # Seeded jitter: some stages carry an extra bookkeeping branch,
        # so the ring-eviction point varies across a population and the
        # aggregate accuracy curve slopes instead of stepping.
        if rng.random() < 0.5:
            slot = rng.randrange(2, 8)
            w("    if (scratch[%d] > %d) {" % (slot, rng.randrange(1, 7)))
            w("        scratch[%d] = value;" % slot)
            w("    }")
        w("    return 1;")
        w("}")
    entry = "helper_0" if spec.pollution else "dispatch"
    w("")
    w("int main(int mode) {")
    w("    scratch[0] = %d;" % seed_a)
    w("    scratch[1] = %d;" % seed_b)
    for slot in range(2, 8):
        w("    scratch[%d] = %d;" % (slot, rng.randrange(1, 9)))
    w("    int ok = %s(mode);" % entry)
    for stage in range(spec.propagation):
        w("    ok = stage_%d(ok);" % stage)
    # Seeded jitter: trailing bookkeeping branches between the last
    # stage and the failure check shift the ring-eviction point per
    # seed, so population curves slope instead of stepping.
    for extra in range(rng.randrange(0, 8)):
        slot = rng.randrange(2, 8)
        w("    if (scratch[%d] < %d) {             // epilogue check %d"
          % (slot, rng.randrange(2, 9), extra))
        w("        scratch[%d] = %d;" % (slot, rng.randrange(1, 9)))
        w("    }")
    w("    if (ok == 0) {")
    w('        error(1, "%s: %s");     // F: failure site'
      % (spec.name, _FAILURE_TEXT))
    w("        return 1;")
    w("    }")
    w("    return 0;")
    w("}")
    source = "\n".join(lines) + "\n"
    faulty_line = "    if (mode == %d) {               " \
        "// A: root cause (== %d intended)" % (wrong, faulty)
    patched = source.replace(
        faulty_line,
        "    if (mode == %d) {               // A: patched" % faulty,
    )
    # Passing modes: the wrongly-accepted one first (always passes,
    # even at ambiguity=1), then every healthy sibling's own mode.
    passing = [(wrong,)] + [(i,) for i in range(m) if i != faulty]
    return {
        "source": source,
        "patched_source": patched,
        "failing_args": (faulty,),
        "passing_args": tuple(passing),
        "patch_function": "sibling_%d" % faulty,
        "failure_output": _FAILURE_TEXT,
    }


# ----------------------------------------------------------------------
# Concurrency template
# ----------------------------------------------------------------------
#
# The apache4 shape: a gate/ack handshake arms an RWR atomicity
# violation on a shared buffer pointer deterministically.  The remote
# thread also dirties `window` padded shared scalars inside the armed
# window; the failure thread reads them all *between* the
# failure-predicting load and the crash, so each unit of `window`
# pushes the FPE one entry deeper into the LCR.


def _concurrency_sources(spec):
    rng = _rng(spec)
    m = spec.ambiguity
    faulty = rng.randrange(m)
    fill = rng.randrange(3, 60)
    # Seeded jitter: a few extra dirtied-and-read scalars shift the
    # LCR-eviction point per seed, sloping the population curve.
    jitter = rng.randrange(0, 4)
    nshared = spec.window + jitter
    lines = []
    w = lines.append
    w("// %s - synthetic race miniature (repro.bugs.synth)." % spec.name)
    w("// Worker %d of %d checks the shared buffer pointer, a reaper"
      % (faulty, m))
    w("// thread nulls it inside the armed window, and %d shared-state"
      % spec.window)
    w("// reads separate the predicting load from the crash.")
    w("int conn_buffer = 0;")
    w("int __pad_head[8];")
    for k in range(nshared):
        w("int shared_%d = 0;" % k)
        w("int __pad_%d[8];" % k)
    w("int race_gate = 0;")
    w("int __pad_gate[8];")
    w("int race_ack = 0;")
    w("int __pad_ack[8];")
    w("int done = 0;")
    w("")
    w("int ap_log_error(int msg) {")
    w("    print_str(msg);")
    w("    return 0;")
    w("}")
    w("")
    w("int reaper(int race) {")
    w("    if (race == 1) {")
    w("        while (race_gate == 0) { yield_(); }")
    for k in range(nshared):
        w("        shared_%d = %d;" % (k, fill + k))
    w("        conn_buffer = 0;                // remote write "
      "(free+null)")
    w("        race_ack = 1;")
    w("    } else {")
    w("        while (done == 0) { yield_(); }")
    w("        conn_buffer = 0;")
    w("    }")
    w("    return 0;")
    w("}")
    for i in range(m):
        w("")
        w("int worker_%d(int race) {" % i)
        if i != faulty:
            w("    if (conn_buffer != 0) {")
            w("        int buf = conn_buffer;")
            w("        return buf[0];")
            w("    }")
            w("    return 0;")
        else:
            w("    if (conn_buffer != 0) {         // a1: check")
            w("        if (race == 1) {")
            w("            race_gate = 1;")
            w("            while (race_ack == 0) { yield_(); }")
            w("        }")
            w("        int buf = conn_buffer;      "
              "// A: root cause (FPE load)")
            w("        int acc = 0;")
            for k in range(nshared):
                w("        acc = acc + shared_%d;  "
                  "// window read %d" % (k, k))
            w("        int first = buf[0];         // F: segfault")
            w("        return first + acc;")
            w("    }")
            w("    return 0;")
        w("}")
    w("")
    w("int main(int race) {")
    w("    conn_buffer = malloc(4);")
    w("    int t = spawn reaper(race);")
    for i in range(m):
        w("    worker_%d(race);" % i)
    w("    done = 1;")
    w("    join(t);")
    w("    return 0;")
    w("}")
    source = "\n".join(lines) + "\n"
    # The patch copies the pointer before opening the gate — the armed
    # window then contains no dereference of freed state.
    patched = source.replace(
        "    if (conn_buffer != 0) {         // a1: check\n"
        "        if (race == 1) {\n"
        "            race_gate = 1;\n"
        "            while (race_ack == 0) { yield_(); }\n"
        "        }\n"
        "        int buf = conn_buffer;      // A: root cause (FPE load)",
        "    if (conn_buffer != 0) {         // a1: check\n"
        "        int buf = conn_buffer;      // A: patched (copied early)\n"
        "        if (race == 1) {\n"
        "            race_gate = 1;\n"
        "            while (race_ack == 0) { yield_(); }\n"
        "        }",
    )
    return {
        "source": source,
        "patched_source": patched,
        "failing_args": (1,),
        "passing_args": ((0,),),
        "patch_function": "worker_%d" % faulty,
        "failure_output": None,
    }


# ----------------------------------------------------------------------
# Benchmark classes
# ----------------------------------------------------------------------

class _SyntheticSequentialBug(BugBenchmark):
    """Base for generated sequential bugs (LBR ring, error() failure)."""

    program = "synth"
    version = "-"
    category = "sequential"
    root_cause_kind = RootCauseKind.SEMANTIC
    failure_kind = FailureKind.ERROR_MESSAGE
    log_functions = ("error",)


class _SyntheticConcurrencyBug(BugBenchmark):
    """Base for generated concurrency bugs (LCR ring, crash failure)."""

    program = "synth"
    version = "-"
    category = "concurrency"
    root_cause_kind = RootCauseKind.ATOMICITY_VIOLATION
    failure_kind = FailureKind.CRASH
    log_functions = ("ap_log_error",)
    interleaving_type = "RWR"
    fpe_state_tags = ("load@I",)
    fpe_in_failure_thread = True

    def is_failure(self, status):
        return status.fault is not None


_CLASS_CACHE = {}


def make_benchmark_class(spec):
    """Build (and memoize) the BugBenchmark subclass for *spec*.

    The class is a pure function of the spec; repeated calls return
    the identical object so ``get_bug(name)`` instances share a type.
    """
    cached = _CLASS_CACHE.get(spec.name)
    if cached is not None:
        return cached
    if spec.kind == "seq":
        parts = _sequential_sources(spec)
        base = _SyntheticSequentialBug
    else:
        parts = _concurrency_sources(spec)
        base = _SyntheticConcurrencyBug
    source = parts["source"]
    anchor = line_of(source, "// A:")
    namespace = {
        "name": spec.name,
        "paper_name": spec.name,
        "spec": spec,
        "source": source,
        "patched_source": parts["patched_source"],
        "root_cause_lines": (anchor,),
        "patch_lines": (anchor,),
        "patch_function": parts["patch_function"],
        "failing_args": parts["failing_args"],
        "passing_args": parts["passing_args"],
        # Synthetic bugs have no paper row; keep the default immutable
        # so no generated class can leak a mutation into another.
        "paper_results": MappingProxyType({}),
    }
    if parts["failure_output"] is not None:
        namespace["failure_output"] = parts["failure_output"]
    cls = type("Synth_%s" % spec.name.replace("-", "_"), (base,),
               namespace)
    _CLASS_CACHE[spec.name] = cls
    return cls


def make_benchmark(spec):
    """Instantiate the synthetic workload for *spec*."""
    return make_benchmark_class(spec)()


def resolve_class(name):
    """The registry's lazy resolver: class for a ``synth-…`` name.

    Raises ``KeyError`` (the registry's contract) when the name does
    not parse, so callers see the same error shape as for an unknown
    corpus bug.
    """
    try:
        spec = SynthSpec.from_name(name)
    except SynthSpecError as exc:
        raise KeyError(name) from exc
    return make_benchmark_class(spec)


# ----------------------------------------------------------------------
# Populations
# ----------------------------------------------------------------------

def population(n, seed=0, kind="mix"):
    """A deterministic population of *n* specs for fleet simulation.

    ``kind`` is ``"seq"``, ``"conc"``, or ``"mix"`` (roughly the
    corpus's 20/11 sequential/concurrency split).  Knobs are drawn from
    the easy-to-moderate region so the population both manifests and
    remains diagnosable — the stress region is what
    :mod:`repro.experiments.curves` sweeps explicitly.
    """
    if n <= 0:
        raise SynthSpecError("population size must be positive")
    if kind not in KINDS + ("mix",):
        raise SynthSpecError("unknown population kind %r" % (kind,))
    rng = random.Random("repro.bugs.synth.population:%d:%s" % (seed, kind))
    specs = []
    for index in range(n):
        pick = kind if kind != "mix" \
            else ("seq" if rng.random() < 20.0 / 31.0 else "conc")
        if pick == "seq":
            specs.append(SynthSpec(
                kind="seq",
                propagation=rng.randrange(0, 5),
                pollution=rng.randrange(0, 3),
                ambiguity=rng.randrange(1, 5),
                window=0,
                seed=seed * 1_000_000 + index,
            ))
        else:
            specs.append(SynthSpec(
                kind="conc",
                propagation=0,
                pollution=0,
                ambiguity=rng.randrange(1, 4),
                window=rng.randrange(0, 7),
                seed=seed * 1_000_000 + index,
            ))
    return specs


def population_names(n, seed=0, kind="mix"):
    """The names of :func:`population` — e.g. a triage fleet roster."""
    return tuple(spec.name for spec in population(n, seed=seed, kind=kind))


def sweep_specs(knob, values, per_point, seed=0):
    """Populations for a one-knob sweep: ``{value: [spec, ...]}``.

    Every spec keeps the non-swept knobs at their neutral defaults;
    spec seeds are unique across the whole sweep so each cell is an
    independent draw.
    """
    if knob not in KNOBS:
        raise SynthSpecError("unknown knob %r (choose from %s)"
                             % (knob, ", ".join(KNOBS)))
    kind = KNOB_KIND[knob]
    grid = {}
    for point, value in enumerate(values):
        cell = []
        for j in range(per_point):
            base = SynthSpec(
                kind=kind,
                seed=seed * 1_000_000 + point * per_point + j,
            )
            cell.append(base.with_knob(knob, value))
        grid[value] = cell
    return grid


def knob_values(knob, points):
    """*points* evenly spread values across the knob's range."""
    if knob not in KNOBS:
        raise SynthSpecError("unknown knob %r (choose from %s)"
                             % (knob, ", ".join(KNOBS)))
    if points < 1:
        raise SynthSpecError("points must be positive")
    low, high = KNOB_RANGES[knob]
    if points == 1:
        return [low]
    span = high - low
    return sorted({low + round(span * i / (points - 1))
                   for i in range(points)})


__all__ = [
    "KINDS",
    "KNOBS",
    "KNOB_KIND",
    "KNOB_RANGES",
    "SynthSpec",
    "SynthSpecError",
    "is_synth_name",
    "knob_values",
    "make_benchmark",
    "make_benchmark_class",
    "population",
    "population_names",
    "resolve_class",
    "sweep_specs",
]
