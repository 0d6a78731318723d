"""Statistical ranking of failure-predicting events (Section 5.2).

Each success/failure run contributes one profile — a set of events
recorded in its LBR/LCR snapshot.  The profiles fold into one
:class:`HitSpectrum`: for every event, the failure runs and the success
runs that observed it (the program-spectra view of Abreu et al.).  For
an event *e*:

* prediction precision  = |F & e| / |e|   (runs that fail among those
  predicted to fail by *e*);
* prediction recall     = |F & e| / |F|   (failing runs predicted by *e*);

and :func:`score_spectrum` ranks events by the harmonic mean of the
two.  Ties share a dense rank: several events can legitimately be
perfect predictors (the branch guarding the failure-logging call always
is), and the paper's "top-1 predictor" claim is interpreted over that
tied set.  The CBI-family baselines score the same spectrum with
Liblit's Increase/Importance coefficient instead
(``repro.baselines.scoring.liblit_rank``).

Each score also carries its *provenance* — an
:class:`~repro.obs.provenance.EventProvenance` naming the failure runs
that supported the event and the success runs that opposed it, plus the
numerator/denominator pairs behind precision and recall — so a report
can show the evidence trail, not just the rank.
"""

from dataclasses import dataclass
from operator import attrgetter

from repro.obs.provenance import EventProvenance


@dataclass(frozen=True)
class PredictorScore:
    """Ranking result for one event."""

    event: object
    precision: float
    recall: float
    f_score: float
    failure_hits: int
    success_hits: int
    rank: int = 0        # dense rank, 1 = best
    provenance: object = None     # EventProvenance (or None)

    def __str__(self):
        return "#%d %s (f=%.3f p=%.3f r=%.3f F=%d S=%d)" % (
            self.rank, self.event, self.f_score,
            self.precision, self.recall,
            self.failure_hits, self.success_hits,
        )


class HitSpectrum:
    """Which failure runs and which success runs observed each key.

    The one place run evidence is counted.  A key is an event id for
    LBRA/LCRA and a predicate id for the CBI-family baselines; *key*
    maps an observed event to it.  The last event seen under a key is
    the one a ranking reports.
    """

    def __init__(self, key=attrgetter("event_id")):
        self.key = key
        self.events = {}              # key -> event
        self.supporting = {}          # key -> ["F<run>", ...]
        self.opposing = {}            # key -> ["S<run>", ...]
        self.total_failures = 0
        self.total_successes = 0

    def add(self, run, failed, events):
        """Fold in run number *run*, which observed *events*.  Its run
        id is ``F<run>`` if it failed and ``S<run>`` if it passed."""
        if failed:
            self.total_failures += 1
            hits, run_id = self.supporting, "F%d" % run
        else:
            self.total_successes += 1
            hits, run_id = self.opposing, "S%d" % run
        key = self.key
        for event in events:
            event_key = key(event)
            self.events[event_key] = event
            hits.setdefault(event_key, []).append(run_id)

    def evidence(self, key):
        """The :class:`EventProvenance` behind *key*."""
        supported_by = self.supporting.get(key, ())
        opposed_by = self.opposing.get(key, ())
        return EventProvenance(
            failure_hits=len(supported_by),
            success_hits=len(opposed_by),
            total_failures=self.total_failures,
            supporting_runs=tuple(supported_by),
            opposing_runs=tuple(opposed_by),
        )


def harmonic_mean(a, b):
    """Harmonic mean, 0 when either input is 0."""
    if a <= 0 or b <= 0:
        return 0.0
    return 2.0 * a * b / (a + b)


def dense_ranks(keys):
    """Yield the dense rank of each of the sorted *keys*: equal
    neighbours share a rank, and each new key takes the next one."""
    rank = 0
    previous = None
    for key in keys:
        if key != previous:
            rank += 1
            previous = key
        yield rank


def rank_predictors(failure_profiles, success_profiles):
    """Rank all events observed across the given profiles.

    Returns :class:`PredictorScore` objects sorted best-first, with dense
    ranks assigned (equal scores share a rank).
    """
    spectrum = HitSpectrum()
    for profile in failure_profiles:
        spectrum.add(profile.run_index, True, profile.event_set)
    for profile in success_profiles:
        spectrum.add(profile.run_index, False, profile.event_set)
    return score_spectrum(spectrum)


def score_spectrum(spectrum):
    """Rank every event of *spectrum* by the harmonic mean of its
    prediction precision and recall: best first, ties broken by event
    id, equal (f, p, r) triples sharing a dense rank."""
    total_failures = spectrum.total_failures
    rows = []
    for key, event in spectrum.events.items():
        evidence = spectrum.evidence(key)
        f_hits = evidence.failure_hits
        observed = f_hits + evidence.success_hits
        precision = f_hits / observed if observed else 0.0
        recall = f_hits / total_failures if total_failures else 0.0
        rows.append((harmonic_mean(precision, recall), precision, recall,
                     key, event, evidence))
    rows.sort(key=lambda row: (-row[0], -row[1], -row[2], row[3]))
    ranks = dense_ranks(row[:3] for row in rows)
    return [
        PredictorScore(
            event=event,
            precision=precision,
            recall=recall,
            f_score=f_score,
            failure_hits=evidence.failure_hits,
            success_hits=evidence.success_hits,
            rank=rank,
            provenance=evidence,
        )
        for rank, (f_score, precision, recall, _, event, evidence)
        in zip(ranks, rows)
    ]


def rank_of_event(scores, predicate):
    """Return the dense rank of the first event satisfying *predicate*,
    or ``None`` if no ranked event matches."""
    for score in scores:
        if predicate(score.event):
            return score.rank
    return None


def branch_on_lines(lines, outcome=None):
    """Event predicate: a branch on one of *lines*, with the given
    outcome unless *outcome* is ``None``."""
    wanted = set(lines)
    suffix = None if outcome is None else ("=T" if outcome else "=F")

    def predicate(event):
        return (event.kind == "branch" and event.line in wanted
                and (suffix is None or event.event_id.endswith(suffix)))

    return predicate


def coherence_on_lines(lines, state_tags=None):
    """Event predicate: a coherence event on one of *lines* in one of
    *state_tags*; empty or ``None`` tags match every state."""
    wanted = set(lines)
    tags = set(state_tags) if state_tags else None

    def predicate(event):
        return (event.kind == "coherence" and event.line in wanted
                and (tags is None or event.detail in tags))

    return predicate
