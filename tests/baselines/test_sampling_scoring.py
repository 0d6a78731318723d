"""Tests for the baseline sampling and Liblit scoring machinery."""

import pytest

from repro.baselines.sampling import GeometricSampler
from repro.baselines.scoring import (
    RunObservation,
    liblit_rank,
    rank_of_line,
)


def test_sampler_rate_validation():
    with pytest.raises(ValueError):
        GeometricSampler(rate=0.0)
    with pytest.raises(ValueError):
        GeometricSampler(rate=1.5)


def test_sampler_rate_one_samples_everything():
    sampler = GeometricSampler(rate=1.0)
    assert list(sampler.positions(50)) == list(range(50))


def test_sampler_approximates_rate():
    sampler = GeometricSampler(rate=0.01, seed=42)
    samples = len(list(sampler.positions(200_000)))
    assert 1500 < samples < 2500      # 2000 expected


def test_sampler_is_deterministic_per_seed():
    def draw(seed):
        sampler = GeometricSampler(rate=0.05, seed=seed)
        return list(sampler.positions(500))
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_sampler_positions_are_increasing_and_in_range():
    positions = list(GeometricSampler(rate=0.3, seed=5).positions(100))
    assert positions == sorted(set(positions))
    assert 0 <= positions[0] and positions[-1] < 100


def _observations(f_true, s_true, f_obs, s_obs):
    """Build runs: predicate 'p' (site 's')."""
    runs = []
    for index in range(f_obs):
        runs.append(RunObservation(
            failed=True,
            true_predicates=frozenset(["s=T"] if index < f_true else []),
            observed_sites=frozenset(["s"]),
        ))
    for index in range(s_obs):
        runs.append(RunObservation(
            failed=False,
            true_predicates=frozenset(["s=T"] if index < s_true else []),
            observed_sites=frozenset(["s"]),
        ))
    return runs


INFO = {"s=T": ("s", "f", 10, "=T")}


def test_discriminative_predicate_ranked():
    runs = _observations(f_true=8, s_true=0, f_obs=10, s_obs=10)
    ranked = liblit_rank(runs, INFO)
    assert len(ranked) == 1
    assert ranked[0].increase > 0
    assert ranked[0].rank == 1


def test_nondiscriminative_predicate_pruned():
    """Increase <= 0: true as often in successes as in failures."""
    runs = _observations(f_true=5, s_true=5, f_obs=10, s_obs=10)
    assert liblit_rank(runs, INFO) == []


def test_unobserved_predicate_pruned():
    runs = _observations(f_true=0, s_true=0, f_obs=10, s_obs=10)
    assert liblit_rank(runs, INFO) == []


def test_importance_grows_with_support():
    weak = liblit_rank(
        _observations(f_true=1, s_true=0, f_obs=50, s_obs=50), INFO
    )[0]
    strong = liblit_rank(
        _observations(f_true=40, s_true=0, f_obs=50, s_obs=50), INFO
    )[0]
    assert strong.importance > weak.importance


def test_rank_of_line_helper():
    runs = _observations(f_true=8, s_true=0, f_obs=10, s_obs=10)
    ranked = liblit_rank(runs, INFO)
    assert rank_of_line(ranked, [10]) == 1
    assert rank_of_line(ranked, [11]) is None
    assert rank_of_line(ranked, [10], detail_suffix="=T") == 1
    assert rank_of_line(ranked, [10], detail_suffix="=F") is None
