"""Statistical scoring for the CBI-style baselines.

Implements the predicate ranking of Liblit et al. ("Scalable statistical
bug isolation", PLDI 2005), which CBI, CCI, and PBI all use:

* ``Failure(P)`` — probability a run fails given P was observed true;
* ``Context(P)`` — probability a run fails given P's site was observed;
* ``Increase(P) = Failure(P) - Context(P)`` — predicates with
  non-positive Increase are pruned;
* ``Importance(P)`` — harmonic mean of Increase(P) and a normalized
  log-recall term, balancing sensitivity and specificity.
"""

import math
from dataclasses import dataclass

from repro.core.statistics import HitSpectrum, dense_ranks


@dataclass(frozen=True)
class ScoredPredicate:
    """One ranked predicate, with the ranked-row surface (``key``,
    ``score``, :meth:`to_row`) of LBRA/LCRA's ``PredictorScore``."""

    predicate_id: str
    site_id: str
    function: str
    line: int
    detail: str
    failure_true: int       # F(P): failing runs where P observed true
    success_true: int       # S(P)
    failure_observed: int   # F(P observed)
    success_observed: int   # S(P observed)
    increase: float
    importance: float
    rank: int = 0
    provenance: object = None     # EventProvenance (or None)

    @property
    def key(self):
        return self.predicate_id

    @property
    def score(self):
        return self.importance

    def to_row(self):
        """This predicate as the plain dict a ``DiagnosisReport``
        carries."""
        return {
            "rank": self.rank,
            "predicate_id": self.predicate_id,
            "site": self.site_id,
            "function": self.function,
            "line": self.line,
            "detail": self.detail,
            "importance": self.importance,
            "increase": self.increase,
            "failure_true": self.failure_true,
            "success_true": self.success_true,
            "provenance": self.provenance.to_dict()
            if self.provenance is not None else None,
        }

    def __str__(self):
        return "#%d %s (Imp=%.3f Inc=%.3f F=%d S=%d)" % (
            self.rank, self.predicate_id, self.importance,
            self.increase, self.failure_true, self.success_true,
        )


@dataclass
class RunObservation:
    """What one run's sampling observed.

    ``true_predicates`` — predicate ids observed true at least once;
    ``observed_sites`` — site ids whose predicates were sampled at all.
    """

    failed: bool
    true_predicates: frozenset
    observed_sites: frozenset


def liblit_rank(observations, predicate_info):
    """Rank predicates from per-run observations.

    *predicate_info* maps predicate id -> (site_id, function, line,
    detail).  Returns :class:`ScoredPredicate` rows, best first, with
    dense ranks; predicates with non-positive Increase are pruned, as in
    CBI.

    The true predicates fold into the same
    :class:`~repro.core.statistics.HitSpectrum` LBRA/LCRA rank, so each
    surviving predicate carries its
    :class:`~repro.obs.provenance.EventProvenance`: the runs that
    supported it (failing runs observing it true) and opposed it
    (passing runs observing it true).  Run ids are the campaign attempt
    positions — observations arrive in campaign order, which is
    deterministic at any cache state — prefixed ``F``/``S`` by outcome.
    Per-site observed counts feed no provenance and stay plain counts.
    """
    spectrum = HitSpectrum(key=str)       # a predicate id is its own key
    f_obs = {}
    s_obs = {}
    for position, observation in enumerate(observations):
        spectrum.add(position, observation.failed,
                     observation.true_predicates)
        site_counts = f_obs if observation.failed else s_obs
        for site_id in observation.observed_sites:
            site_counts[site_id] = site_counts.get(site_id, 0) + 1

    rows = []
    for predicate_id in spectrum.events:
        info = predicate_info.get(predicate_id)
        if info is None:
            continue
        f_p = len(spectrum.supporting.get(predicate_id, ()))
        s_p = len(spectrum.opposing.get(predicate_id, ()))
        f_o = f_obs.get(info[0], 0)
        s_o = s_obs.get(info[0], 0)
        if f_o + s_o == 0:
            continue
        failure = f_p / (f_p + s_p)
        context = f_o / (f_o + s_o)
        increase = failure - context
        if increase <= 0:
            continue
        importance = _importance(increase, f_p, spectrum.total_failures)
        rows.append((importance, increase, predicate_id, info,
                     f_p, s_p, f_o, s_o))
    rows.sort(key=lambda row: (-row[0], -row[1], row[2]))
    ranks = dense_ranks(row[:2] for row in rows)
    return [
        ScoredPredicate(
            predicate_id=predicate_id, site_id=site_id,
            function=function, line=line, detail=detail,
            failure_true=f_p, success_true=s_p,
            failure_observed=f_o, success_observed=s_o,
            increase=increase, importance=importance,
            rank=rank, provenance=spectrum.evidence(predicate_id),
        )
        for rank, (importance, increase, predicate_id,
                   (site_id, function, line, detail), f_p, s_p, f_o, s_o)
        in zip(ranks, rows)
    ]


def _importance(increase, failure_true, total_failures):
    """Harmonic mean of Increase and the normalized log-recall term."""
    if total_failures <= 1:
        log_term = 1.0 if failure_true > 0 else 0.0
    else:
        log_term = math.log(failure_true + 1) / math.log(total_failures + 1)
    if increase <= 0 or log_term <= 0:
        return 0.0
    return 2.0 / (1.0 / increase + 1.0 / log_term)


def rank_of_line(ranked, lines, detail_suffix=None):
    """Dense rank of the best predicate on one of *lines*, or None."""
    wanted = set(lines)
    for predicate in ranked:
        if predicate.line not in wanted:
            continue
        if detail_suffix is not None \
                and not predicate.predicate_id.endswith(detail_suffix):
            continue
        return predicate.rank
    return None
