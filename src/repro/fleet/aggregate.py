"""Incremental rank aggregation for fleet triage.

:func:`repro.core.statistics.rank_predictors` is a batch function: it
needs every profile up front, so convergence ("after how many runs did
the true root cause reach rank 1?") is invisible.  The fleet view wants
exactly that visibility — `repro obs trends` shows per-signature
convergence as campaign runs arrive.

:class:`IncrementalRanker` folds each arriving run into the same
:class:`~repro.core.statistics.HitSpectrum` the batch ranking builds, in
O(|profile|) per run; :meth:`ranking` scores it on demand with the same
:func:`~repro.core.statistics.score_spectrum`.  Same structure, same
scorer: its output is *identical* — same
:class:`~repro.core.statistics.PredictorScore` rows in the same order,
including provenance — to calling ``rank_predictors`` on the same
profiles by construction.  Incrementality changes when ranks become
observable, never what they are.
"""

from repro.core.statistics import HitSpectrum, rank_of_event, score_spectrum
from repro.obs import get_obs


class IncrementalRanker:
    """Event ranking that absorbs one run profile at a time."""

    def __init__(self):
        self.spectrum = HitSpectrum()

    # -- absorbing runs --------------------------------------------------

    def add_failure(self, profile):
        """Fold in one failure-run profile."""
        self.spectrum.add(profile.run_index, True, profile.event_set)

    def add_success(self, profile):
        """Fold in one success-run profile."""
        self.spectrum.add(profile.run_index, False, profile.event_set)

    def add(self, profile):
        """Fold in one profile, routed by its recorded outcome."""
        get_obs().counter("fleet.rank_updates").inc()
        if profile.outcome == "failure":
            self.add_failure(profile)
        else:
            self.add_success(profile)

    # -- observing ranks -------------------------------------------------

    @property
    def runs_seen(self):
        return self.spectrum.total_failures + self.spectrum.total_successes

    def ranking(self):
        """The dense ranking over everything absorbed so far.

        Same rows, order, and provenance as
        ``rank_predictors(failures_so_far, successes_so_far)``.
        """
        with get_obs().timer("stage.rank_update.seconds"):
            return score_spectrum(self.spectrum)

    def rank_of(self, predicate):
        """Dense rank of the best current event satisfying *predicate*."""
        return rank_of_event(self.ranking(), predicate)


__all__ = ["IncrementalRanker"]
