"""The simulated fleet stream: determinism, mixing, manifestation."""

import pytest

from repro.bugs.registry import bug_names, get_bug
from repro.fleet import FleetStream

POPULATION = ["sort", "apache1", "mozilla-js1"]


def test_stream_is_deterministic_by_seed():
    first = FleetStream(population=POPULATION, seed=5).generate(10)
    second = FleetStream(population=POPULATION, seed=5).generate(10)
    assert [r.report_id for r in first] == [r.report_id for r in second]
    assert [r.app for r in first] == [r.app for r in second]


def test_different_seeds_draw_different_mixes():
    a = FleetStream(population=POPULATION, seed=1).generate(10)
    b = FleetStream(population=POPULATION, seed=2).generate(10)
    assert [r.app for r in a] != [r.app for r in b]


def test_every_report_is_a_manifested_failure():
    for report in FleetStream(population=POPULATION, seed=0).generate(8):
        bug = get_bug(report.app)
        assert bug.is_failure(report.status)
        assert report.program is not None
        # The ring follows the deployment rule: LBR for sequential
        # applications, LCR for concurrency ones.
        expected = "lbr" if bug.category == "sequential" else "lcr"
        assert report.ring == expected


def test_plan_indices_advance_per_application():
    reports = FleetStream(population=POPULATION, seed=4).generate(12)
    per_app = {}
    for report in reports:
        per_app.setdefault(report.app, []).append(report.plan_index)
    for indices in per_app.values():
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


def test_default_population_is_the_whole_corpus():
    stream = FleetStream(seed=0)
    assert set(stream.population) == set(bug_names())


def test_empty_population_rejected():
    with pytest.raises(ValueError, match="empty"):
        FleetStream(population=[])


def test_reports_share_one_program_per_application():
    reports = FleetStream(population=["sort"], seed=0).generate(3)
    assert len({id(r.program) for r in reports}) == 1


# ---------------------------------------------------------------------------
# Shortfall reporting and stage timing (regression: starved streams
# used to silently yield fewer than n reports with no telemetry)
# ---------------------------------------------------------------------------

def _stubborn_sort(name):
    """A 'sort' workload whose failing plan never manifests."""
    bug = get_bug("sort")
    bug.failing_run_plan = bug.passing_run_plan
    return bug


def test_starved_stream_reports_its_shortfall(monkeypatch):
    from repro.fleet import FleetShortfallWarning
    from repro.fleet import stream as stream_mod
    from repro.obs import Observability, use

    monkeypatch.setattr(stream_mod, "get_bug", _stubborn_sort)
    stream = FleetStream(population=["sort"], seed=0)
    with use(Observability()) as obs:
        with pytest.warns(FleetShortfallWarning):
            reports = stream.generate(2)
    assert reports == []
    assert stream.shortfall is not None
    assert stream.shortfall.want == 2
    assert stream.shortfall.got == 0
    assert stream.shortfall.attempts == stream.shortfall.limit
    assert "0/2" in stream.shortfall.describe()
    assert obs.counter("fleet.stream.shortfall").total == 1


def test_healthy_stream_leaves_no_shortfall():
    import warnings

    stream = FleetStream(population=["sort"], seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # any warning fails the test
        reports = stream.generate(3)
    assert len(reports) == 3
    assert stream.shortfall is None


def test_stage_timers_split_attempts_from_ingest():
    # Every emission attempt feeds stage.attempt.seconds; only yielded
    # reports feed stage.ingest.seconds (with the accumulated attempt
    # time), so skipped non-manifesting attempts can't dilute the
    # per-report latency panel.
    from repro.obs import Observability, use

    # pbzip2 is a concurrency bug whose failing plan does not manifest
    # on every attempt, so attempts > reports.
    with use(Observability()) as obs:
        reports = FleetStream(population=["pbzip2"], seed=0).generate(3)
    assert len(reports) == 3
    attempt = obs.metrics.sketch("stage.attempt.seconds", timing=True)
    ingest = obs.metrics.sketch("stage.ingest.seconds", timing=True)
    assert ingest.count == 3
    assert attempt.count == obs.counter("fleet.stream.attempts").total
    assert attempt.count >= ingest.count
    # All attempt time is accounted for in the ingest accumulation.
    assert ingest.total == pytest.approx(attempt.total)
