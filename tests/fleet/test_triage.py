"""Triage: clustering, dispatch via the registry, convergence, ledger."""

import pytest

from repro.bugs.registry import get_bug
from repro.core.api import get_tool
from repro.core.statistics import rank_predictors
from repro.fleet import FleetStream, triage_reports
from repro.fleet.aggregate import IncrementalRanker
from repro.fleet.triage import RING_TOOLS, cluster_reports
from repro.obs.ledger import Ledger, use

POPULATION = ["sort", "apache1", "mozilla-js1"]


@pytest.fixture(scope="module")
def triage_result():
    reports = FleetStream(population=POPULATION, seed=7).generate(12)
    return reports, triage_reports(reports, runs=5, seed=7)


def test_one_cluster_per_bug_no_cross_merges(triage_result):
    reports, result = triage_result
    assert result.n_reports == 12
    assert result.n_clusters == len(POPULATION)
    for cluster in result.clusters:
        assert len({r.app for r in cluster.reports}) == 1
    assert {c.app for c in result.clusters} == set(POPULATION)
    # Display order: biggest cluster first, digest breaking ties.
    sizes = [c.size for c in result.clusters]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == 12


def test_dispatch_follows_the_ring_through_the_registry(triage_result):
    _, result = triage_result
    for cluster in result.clusters:
        assert cluster.tool == RING_TOOLS[cluster.ring]
        assert cluster.error is None
        assert cluster.diagnosis.tool == cluster.tool


def test_true_root_cause_ranks_first(triage_result):
    _, result = triage_result
    assert len(result.labeled()) == len(result.clusters)
    assert len(result.rank1()) == len(result.clusters)


def test_convergence_final_point_matches_batch_ranking(triage_result):
    _, result = triage_result
    for cluster in result.clusters:
        runs_seen, final_rank = cluster.convergence[-1]
        raw = cluster.diagnosis.raw
        assert runs_seen == (len(raw.failure_profiles)
                             + len(raw.success_profiles))
        assert final_rank == cluster.true_rank
        assert cluster.runs_to_rank1 is not None
        assert cluster.runs_to_rank1 <= runs_seen


def test_table_renders_one_row_per_cluster(triage_result):
    _, result = triage_result
    table = result.table()
    assert len(table.rows) == result.n_clusters
    text = table.format()
    assert "Fleet triage by fault signature" in text
    assert "12 reports clustered into 3 signatures" in text
    assert "ranked #1 for 3/3 labeled clusters" in text


def test_incremental_ranker_equals_batch_rank_predictors(triage_result):
    _, result = triage_result
    for cluster in result.clusters:
        raw = cluster.diagnosis.raw
        ranker = IncrementalRanker()
        for profile in raw.failure_profiles:
            ranker.add(profile)
        for profile in raw.success_profiles:
            ranker.add(profile)
        batch = rank_predictors(raw.failure_profiles,
                                raw.success_profiles)
        incremental = ranker.ranking()
        assert [
            (s.event.event_id, s.rank, s.f_score, s.precision,
             s.recall, s.failure_hits, s.success_hits, s.provenance)
            for s in incremental
        ] == [
            (s.event.event_id, s.rank, s.f_score, s.precision,
             s.recall, s.failure_hits, s.success_hits, s.provenance)
            for s in batch
        ]


def test_incremental_ranker_tracks_prefixes_not_just_the_end():
    reports = FleetStream(population=["sort"], seed=1).generate(2)
    result = triage_reports(reports, runs=4, seed=1)
    cluster, = result.clusters
    raw = cluster.diagnosis.raw
    arrival = list(raw.failure_profiles) + list(raw.success_profiles)
    ranker = IncrementalRanker()
    for prefix, (runs_seen, _rank) in zip(
            range(1, len(arrival) + 1), cluster.convergence):
        ranker.add(arrival[prefix - 1])
        assert runs_seen == prefix
        batch = rank_predictors(
            [p for p in arrival[:prefix] if p.outcome == "failure"],
            [p for p in arrival[:prefix] if p.outcome != "failure"],
        )
        assert [s.event.event_id for s in ranker.ranking()] \
            == [s.event.event_id for s in batch]


def test_shared_executor_reuses_runs_across_clusters(tmp_path):
    from repro.runtime.executor import CampaignExecutor

    reports_a = FleetStream(population=["sort"], seed=0).generate(2)
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=str(tmp_path / "cache")) as executor:
        result = triage_reports(reports_a, runs=3, executor=executor,
                                seed=0)
        assert result.rank1()
        first_attempts = executor.stats.attempts
        # A second triage pass over the same fleet hits the shared
        # run cache instead of re-executing.
        result2 = triage_reports(reports_a, runs=3, executor=executor,
                                 seed=0)
        assert executor.stats.cache_hits > 0
        assert [c.true_rank for c in result2.clusters] \
            == [c.true_rank for c in result.clusters]
        assert first_attempts > 0


def test_ledger_entries_are_content_keyed_and_deterministic(tmp_path):
    reports = FleetStream(population=["sort", "apache1"],
                          seed=3).generate(6)

    def run_triage(directory):
        with use(Ledger(str(directory))):
            triage_reports(reports, runs=3, seed=3)
        return Ledger(str(directory)).entries()

    first = run_triage(tmp_path / "a")
    second = run_triage(tmp_path / "b")
    assert [e["entry_id"] for e in first] \
        == [e["entry_id"] for e in second]
    triage_entries = [e for e in first if e["kind"] == "triage"]
    per_cluster = [e for e in triage_entries
                   if e["workload"].startswith("sig:")]
    assert len(per_cluster) == 2
    for entry in per_cluster:
        assert entry["tool"] in RING_TOOLS.values()
        assert entry["quality"]["true_rank"] == 1
        assert entry["quality"]["convergence"]
        assert entry["seed"] == 3
    summary, = [e for e in triage_entries if e["workload"] == "fleet"]
    assert summary["quality"]["clusters"] == 2
    assert summary["quality"]["rank1"] == 2


def test_clustering_never_reads_the_label(triage_result):
    import dataclasses

    reports, _ = triage_result
    # Strip the ground-truth label: cluster membership must not change,
    # because the signature is computed from the report contents alone.
    anonymized = [dataclasses.replace(r, app="anon-%d" % i)
                  for i, r in enumerate(reports)]
    assert [c.digest for c in cluster_reports(anonymized)] \
        == [c.digest for c in cluster_reports(reports)]


def test_diagnosis_error_is_reported_not_raised(monkeypatch, tmp_path):
    from repro.core import lbra

    reports = FleetStream(population=["sort"], seed=0).generate(2)

    def explode(self, *args, **kwargs):
        raise lbra.DiagnosisError("injected")

    monkeypatch.setattr(
        "repro.core.api.DiagnosisTool.run_diagnosis", explode)
    result = triage_reports(reports, runs=2, seed=0)
    cluster, = result.clusters
    assert cluster.error == "injected"
    assert cluster.diagnosis is None
    assert cluster.true_rank is None
    assert "error: injected" in result.table().format()


def _publications(monkeypatch, tmp_path, seconds_per_reading):
    """Triage two clusters with snapshot publication recorded, under a
    clock that advances *seconds_per_reading* each time it is read."""
    import types

    from repro.fleet import triage
    from repro.obs.timeseries import read_snapshot

    readings = iter(range(10_000))
    monkeypatch.setattr(triage, "time", types.SimpleNamespace(
        perf_counter=lambda: next(readings) * seconds_per_reading))
    published = []

    def record(path, snapshot):
        published.append((snapshot["fleet"]["diagnosed"],
                          snapshot["complete"]))
        return real_publish(path, snapshot)

    real_publish = triage.publish_snapshot
    monkeypatch.setattr(triage, "publish_snapshot", record)
    reports = FleetStream(population=["sort", "apache1"],
                          seed=3).generate(6)
    path = tmp_path / "snap.json"
    result = triage_reports(reports, runs=3, seed=3,
                            snapshot_path=str(path))
    assert result.n_clusters == 2
    assert result.snapshot_published
    final = read_snapshot(str(path))
    assert final["complete"] and final["fleet"]["diagnosed"] == 2
    return published


def test_snapshot_publishes_only_first_and_final_frames_within_interval(
        monkeypatch, tmp_path):
    """With no time passing, no intermediate frame is worth a rename:
    the first and the complete snapshot only."""
    assert _publications(monkeypatch, tmp_path, 0.0) \
        == [(0, False), (2, True)]


def test_snapshot_publishes_every_cluster_once_an_interval_passes(
        monkeypatch, tmp_path):
    """A clock that moves a full watch interval per reading publishes
    after every diagnosed cluster, as a slow triage would."""
    from repro.obs.watch import DEFAULT_INTERVAL

    assert _publications(monkeypatch, tmp_path, DEFAULT_INTERVAL) \
        == [(0, False), (1, False), (2, False), (2, True)]


def test_triage_compiles_each_program_once(monkeypatch):
    """The stream compiles each application's failure-logging program;
    each cluster's campaign reuses it and compiles only its reactive
    success program."""
    import sys

    from repro.compiler.frontend import compile_module
    from repro.runtime.executor import fingerprint_program

    built = []

    def recording(*args, **kwargs):
        program = compile_module(*args, **kwargs)
        built.append(fingerprint_program(program))
        return program

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and getattr(module, "compile_module", None) is compile_module:
            monkeypatch.setattr(module, "compile_module", recording)
    population = ["sort", "tac", "pbzip2"]
    reports = FleetStream(population=population, seed=0).generate(9)
    result = triage_reports(reports, runs=4, seed=0)
    assert all(cluster.diagnosis for cluster in result.clusters)
    assert len(built) == len(population) + result.n_clusters
    assert len(set(built)) == len(built)
    # The reused program is the one the tool would have compiled.
    for cluster in result.clusters:
        tool = get_tool(cluster.tool)(get_bug(cluster.app),
                                      scheme="reactive").tool
        assert fingerprint_program(tool.failure_program) \
            == fingerprint_program(cluster.reports[0].program)


def test_triage_parses_each_source_once(monkeypatch):
    """The stream parses each application's source; each cluster's
    campaign builds its success program from that parsed module instead
    of parsing the source again."""
    import hashlib
    import sys

    from repro.lang.parser import parse

    def digest(source):
        return hashlib.sha256(source.encode()).hexdigest()

    parsed = []

    def recording(source, *args, **kwargs):
        parsed.append(digest(source))
        return parse(source, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and getattr(module, "parse", None) is parse:
            monkeypatch.setattr(module, "parse", recording)
    population = ["sort", "tac", "pbzip2"]
    reports = FleetStream(population=population, seed=0).generate(9)
    result = triage_reports(reports, runs=4, seed=0)
    assert all(cluster.diagnosis for cluster in result.clusters)
    assert {digest(get_bug(name).source) for name in population} \
        <= set(parsed)
    assert len(set(parsed)) == len(parsed)
