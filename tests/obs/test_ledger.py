"""Tests for the persistent run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.bugs.registry import get_bug
from repro.core.api import get_tool
from repro.obs.ledger import (
    Ledger,
    LedgerError,
    NULL_LEDGER,
    TIMING_FIELDS,
    compute_trends,
    content_key,
    diff_entries,
    get_ledger,
    render_compare,
    render_trends,
    resolve_ledger_dir,
    set_ledger,
    use,
)
from repro.runtime.executor import build_executor
from repro.runtime.harness import run_campaign


# ----------------------------------------------------------------------
# Append / read / seq mechanics
# ----------------------------------------------------------------------

def _append_sample(ledger, rank=1, wall=0.1, seed=0):
    return ledger.append(
        kind="diagnosis", tool="lbra", workload="apache1", seed=seed,
        params={"scheme": "reactive"},
        quality={"root_cause_rank": rank, "n_ranked": 5},
        runs={"failures": 10, "successes": 10},
        provenance_digest="ab" * 32,
        timings={"wall_seconds": wall},
    )


def test_append_and_read_back(tmp_path):
    ledger = Ledger(tmp_path / "ledger")
    entry = _append_sample(ledger)
    assert entry["seq"] == 0
    assert entry["version"] == 1
    stored = ledger.entries()
    assert len(stored) == 1
    assert stored[0]["entry_id"] == entry["entry_id"]
    assert stored[0]["quality"]["root_cause_rank"] == 1


def test_entries_filtering(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger)
    ledger.append(kind="experiment", tool="table5", workload="x")
    assert len(ledger.entries()) == 2
    assert len(ledger.entries(kind="diagnosis")) == 1
    assert len(ledger.entries(kind="experiment", tool="table5")) == 1
    assert ledger.entries(tool="nope") == []


def test_content_key_ignores_timing_fields():
    base = {"version": 1, "kind": "diagnosis", "tool": "lbra",
            "workload": "w", "seed": 0, "params": {}, "quality": None,
            "runs": {}, "provenance_digest": None}
    with_timing = dict(base, timings={"wall_seconds": 99.0},
                       created_at="2020-01-01", seq=7,
                       entry_id="whatever", executor={"jobs": 4},
                       obs={"counters": {}})
    assert content_key(base) == content_key(with_timing)
    changed = dict(base, seed=1)
    assert content_key(changed) != content_key(base)


def test_same_content_same_entry_id(tmp_path):
    ledger = Ledger(tmp_path)
    first = _append_sample(ledger, wall=0.1)
    second = _append_sample(ledger, wall=99.9)
    assert first["entry_id"] == second["entry_id"]
    assert first["seq"] != second["seq"]
    worse = _append_sample(ledger, rank=2)
    assert worse["entry_id"] != first["entry_id"]


def test_stale_index_file_is_ignored(tmp_path):
    # Older versions kept an index.json beside the JSONL.  A stale one
    # must neither steer the numbering nor be rewritten.
    ledger = Ledger(tmp_path)
    for rank in (1, 2, 3):
        _append_sample(ledger, rank=rank)
    stale = tmp_path / "index.json"
    stale.write_text(json.dumps({"version": 1, "next_seq": 99,
                                 "entries": []}, sort_keys=True))
    before = stale.read_bytes()
    assert _append_sample(ledger, rank=4)["seq"] == 3
    assert stale.read_bytes() == before
    assert [e["seq"] for e in ledger.entries()] == [0, 1, 2, 3]


def test_seq_follows_last_lines_longer_than_one_read(tmp_path):
    # A 128 KB last line spans many backward reads, alone in the file or
    # after another line.  Seqs start at 40, so the line-count fallback
    # cannot stand in for reading that line whole.
    long_line = json.dumps({"seq": 41, "blob": "x" * (1 << 17)}) + "\n"
    for head in ("", json.dumps({"seq": 40}) + "\n"):
        directory = tmp_path / ("after-a-line" if head else "alone")
        directory.mkdir()
        (directory / "ledger.jsonl").write_text(head + long_line)
        ledger = Ledger(directory)
        assert _append_sample(ledger)["seq"] == 42
        assert _append_sample(ledger)["seq"] == 43


def test_unparseable_last_line_falls_back_to_line_count(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1)
    _append_sample(ledger, rank=2)
    with open(ledger.ledger_path, "a") as handle:
        handle.write("not json\n")         # complete, so not quarantined
    assert _append_sample(ledger, rank=3)["seq"] == 3
    assert [e["seq"] for e in ledger.entries()] == [0, 1, 3]


def test_torn_tail_line_is_skipped(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger)
    with open(ledger.ledger_path, "a") as handle:
        handle.write('{"torn": ')
    assert len(ledger.entries()) == 1


def test_resolve_by_seq_and_prefix(tmp_path):
    ledger = Ledger(tmp_path)
    first = _append_sample(ledger, rank=1)
    second = _append_sample(ledger, rank=2)
    assert ledger.resolve("@0")["entry_id"] == first["entry_id"]
    assert ledger.resolve("@1")["entry_id"] == second["entry_id"]
    assert ledger.resolve("@-1")["entry_id"] == second["entry_id"]
    assert ledger.resolve(first["entry_id"][:10])["entry_id"] \
        == first["entry_id"]
    with pytest.raises(LedgerError):
        ledger.resolve("@99")
    with pytest.raises(LedgerError):
        ledger.resolve("ffff")
    with pytest.raises(LedgerError):
        Ledger(tmp_path / "empty").resolve("@0")


def test_resolve_seq_matches_only_that_seq(tmp_path):
    # Corrupt the line of seq 2: the readable seqs are [0, 1, 3], and
    # "@2" must not fall back to list position 2 (which holds seq 3).
    ledger = Ledger(tmp_path)
    for rank in range(4):
        _append_sample(ledger, rank=rank)
    with open(ledger.ledger_path) as handle:
        lines = handle.readlines()
    lines[2] = "corrupt\n"
    with open(ledger.ledger_path, "w") as handle:
        handle.writelines(lines)
    assert [e["seq"] for e in ledger.entries()] == [0, 1, 3]
    with pytest.raises(LedgerError, match="no entry @2"):
        ledger.resolve("@2")
    with pytest.raises(LedgerError):
        render_compare(ledger, "@2", "@3")
    assert ledger.resolve("@3")["seq"] == 3
    assert ledger.resolve("@-1")["seq"] == 3
    assert ledger.resolve("@-3")["seq"] == 0
    with pytest.raises(LedgerError):
        ledger.resolve("@-4")


def test_resolve_ambiguous_prefix(tmp_path):
    ledger = Ledger(tmp_path)
    a = _append_sample(ledger, rank=1)
    b = _append_sample(ledger, rank=2)
    shared = 0
    while a["entry_id"][shared] == b["entry_id"][shared]:
        shared += 1
    if shared:
        with pytest.raises(LedgerError):
            ledger.resolve(a["entry_id"][:shared])


def test_resolve_ledger_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
    assert resolve_ledger_dir() == str(tmp_path / "env")
    assert resolve_ledger_dir(tmp_path / "explicit") \
        == str(tmp_path / "explicit")
    monkeypatch.delenv("REPRO_LEDGER_DIR")
    assert resolve_ledger_dir() == ".repro-ledger"


# ----------------------------------------------------------------------
# The current-ledger pattern
# ----------------------------------------------------------------------

def test_null_ledger_is_default_and_noop(tmp_path):
    assert get_ledger() is NULL_LEDGER
    assert NULL_LEDGER.append(kind="diagnosis") is None
    assert NULL_LEDGER.entries() == []
    assert NULL_LEDGER.record_experiment("x", None, 0.0) is None


def test_use_restores_previous(tmp_path):
    ledger = Ledger(tmp_path)
    with use(ledger):
        assert get_ledger() is ledger
        with use(None):
            assert get_ledger() is NULL_LEDGER
        assert get_ledger() is ledger
    assert get_ledger() is NULL_LEDGER


def test_set_ledger_returns_previous(tmp_path):
    ledger = Ledger(tmp_path)
    previous = set_ledger(ledger)
    try:
        assert get_ledger() is ledger
    finally:
        set_ledger(previous)


# ----------------------------------------------------------------------
# Recording hooks
# ----------------------------------------------------------------------

def test_diagnosis_recorded_with_quality(tmp_path):
    bug = get_bug("apache1")
    ledger = Ledger(tmp_path)
    with use(ledger):
        get_tool("lbra")(bug).run_diagnosis(n_failures=4, n_successes=4)
    entries = ledger.entries(kind="diagnosis")
    assert len(entries) == 1
    entry = entries[0]
    assert entry["tool"] == "lbra"
    assert entry["workload"] == "apache1"
    assert entry["quality"]["root_cause_rank"] == 1
    assert entry["quality"]["n_ranked"] > 0
    assert len(entry["provenance_digest"]) == 64
    assert entry["runs"] == {"failures": 4, "successes": 4}
    assert entry["timings"]["wall_seconds"] > 0


def test_root_cause_lookups_agree_when_fpe_tags_are_empty():
    """A concurrency workload left at the default ``fpe_state_tags``
    of ``()``: the Table 7 accessor, the ledger's quality record and
    triage's convergence predicate all find its root cause at rank 1."""
    from repro.bugs.base import BugBenchmark
    from repro.core.events import Event
    from repro.core.lbra import Diagnosis
    from repro.core.profiles import RunProfile
    from repro.core.statistics import rank_of_event, rank_predictors
    from repro.fleet.triage import _true_cause_predicate
    from repro.obs.ledger import diagnosis_quality

    class UntaggedRace(BugBenchmark):
        category = "concurrency"
        root_cause_lines = (4,)

    workload = UntaggedRace()
    assert workload.fpe_state_tags == ()
    race = Event(event_id="worker:4:load@I", kind="coherence",
                 function="worker", line=4, detail="load@I")
    failure = RunProfile(run_index=0, outcome="failure", ring="lcr",
                         site_id=0, events=(race,), snapshot=None)
    diagnosis = Diagnosis(
        ranked=rank_predictors([failure], []), failure_site=None,
        success_site=None, n_failure_profiles=1, n_success_profiles=0,
        scheme="reactive", ring="lcr")
    assert diagnosis.rank_of_coherence(workload.root_cause_lines,
                                       workload.fpe_state_tags) == 1
    assert diagnosis_quality(diagnosis, workload)["root_cause_rank"] == 1
    assert rank_of_event(diagnosis.ranked,
                         _true_cause_predicate(workload)) == 1


def test_baseline_diagnosis_recorded(tmp_path):
    bug = get_bug("rm")
    ledger = Ledger(tmp_path)
    with use(ledger):
        get_tool("cbi")(bug).run_diagnosis(n_failures=100, n_successes=100)
    entries = ledger.entries(kind="diagnosis", tool="cbi")
    assert len(entries) == 1
    assert entries[0]["params"]["n_failures"] == 100
    assert "executor" not in entries[0]["params"]
    assert entries[0]["quality"]["root_cause_rank"] == 1


def test_campaign_recorded(tmp_path):
    from repro.core.lbrlog import LbrLogTool

    bug = get_bug("sort")
    tool = LbrLogTool(bug)
    ledger = Ledger(tmp_path)
    with use(ledger):
        result = run_campaign(tool.program, bug, want_failures=2,
                              want_successes=2)
    entries = ledger.entries(kind="campaign")
    assert len(entries) == 1
    assert entries[0]["workload"] == "sort"
    assert entries[0]["runs"]["failures"] == len(result.failures)
    assert entries[0]["runs"]["met_quotas"] is True


def test_experiment_recorded(tmp_path):
    from repro.experiments import table5

    ledger = Ledger(tmp_path)
    with use(ledger):
        result = table5.run()
    entries = ledger.entries(kind="experiment")
    assert len(entries) == 1
    entry = entries[0]
    assert entry["workload"] == "experiment.table5"
    assert entry["quality"]["n_rows"] == len(result.rows)
    assert len(entry["quality"]["rows_digest"]) == 64
    assert entry["timings"]["wall_seconds"] > 0


# ----------------------------------------------------------------------
# Determinism: identical entries at any --jobs value
# ----------------------------------------------------------------------

def _diagnose_with_jobs(tmp_path, jobs):
    bug = get_bug("apache1")
    ledger = Ledger(tmp_path / ("jobs%d" % jobs))
    executor = build_executor(jobs=jobs)
    try:
        with use(ledger):
            get_tool("lbra")(bug, executor=executor) \
                .run_diagnosis(n_failures=4, n_successes=4)
    finally:
        if executor is not None:
            executor.shutdown()
    (entry,) = ledger.entries(kind="diagnosis")
    return entry


def test_ledger_determinism_across_jobs(tmp_path):
    """Same diagnosis, same seed: --jobs 1 and --jobs 4 produce
    identical quality and provenance records; only timing fields may
    differ."""
    sequential = _diagnose_with_jobs(tmp_path, 1)
    parallel = _diagnose_with_jobs(tmp_path, 4)
    assert sequential["entry_id"] == parallel["entry_id"]
    assert sequential["provenance_digest"] \
        == parallel["provenance_digest"]
    assert sequential["quality"] == parallel["quality"]
    differing = {name for name in sequential
                 if sequential[name] != parallel[name]}
    assert differing <= set(TIMING_FIELDS)


# ----------------------------------------------------------------------
# Trends / compare analytics
# ----------------------------------------------------------------------

def test_trends_empty_and_single(tmp_path):
    ledger = Ledger(tmp_path)
    text, code = render_trends(ledger)
    assert code == 0
    assert "empty" in text
    _append_sample(ledger)
    text, code = render_trends(ledger)
    assert code == 0
    assert "no group has two or more" in text


def test_trends_stable_series_passes(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1, wall=0.1)
    _append_sample(ledger, rank=1, wall=0.2)
    text, code = render_trends(ledger)
    assert code == 0
    assert "no regressions detected" in text
    assert "1 -> 1" in text


def test_trends_rank_regression_gates(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1)
    _append_sample(ledger, rank=3)
    text, code = render_trends(ledger)
    assert code == 1
    assert "REGRESSION" in text
    assert "1 -> 3" in text
    # A generous threshold tolerates the same delta.
    _text, code = render_trends(ledger, rank_threshold=2)
    assert code == 0


def test_trends_rank_lost_entirely_gates(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1)
    _append_sample(ledger, rank=None)
    _text, code = render_trends(ledger)
    assert code == 1
    # ...at any threshold: None is strictly worse than any rank.
    _text, code = render_trends(ledger, rank_threshold=100)
    assert code == 1


def test_trends_rank_improvement_passes(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=3)
    _append_sample(ledger, rank=1)
    _text, code = render_trends(ledger)
    assert code == 0


def test_trends_latency_gate_opt_in(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, wall=0.1)
    _append_sample(ledger, wall=0.5)
    _text, code = render_trends(ledger)
    assert code == 0                       # latency never gates by default
    text, code = render_trends(ledger, latency_threshold=100.0)
    assert code == 1
    assert "wall time" in text
    _text, code = render_trends(ledger, latency_threshold=1000.0)
    assert code == 0


def test_trends_experiment_digest_change_gates(tmp_path):
    ledger = Ledger(tmp_path)
    for digest in ("aa" * 32, "bb" * 32):
        ledger.append(kind="experiment", tool="table5",
                      workload="experiment.table5",
                      quality={"n_rows": 13, "rows_digest": digest},
                      timings={"wall_seconds": 0.3})
    text, code = render_trends(ledger)
    assert code == 1
    assert "output changed" in text


def test_trends_groups_by_params_and_seed(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1, seed=0)
    _append_sample(ledger, rank=3, seed=1)     # different series
    rows, regressions = compute_trends(
        [e for e in ledger.entries()], rank_threshold=0)
    assert rows == []
    assert regressions == []


def test_compare_renders_diff(tmp_path):
    ledger = Ledger(tmp_path)
    _append_sample(ledger, rank=1, wall=0.1)
    _append_sample(ledger, rank=2, wall=0.2)
    text = render_compare(ledger, "@0", "@1")
    assert "quality.root_cause_rank" in text
    assert "!" in text                     # deterministic difference
    assert "timings.wall_seconds" in text
    # Identical entries show nothing without --show-same.
    _append_sample(ledger, rank=2, wall=0.2)
    rows = diff_entries(ledger.resolve("@1"), ledger.resolve("@2"))
    deterministic_diffs = [
        field for field, _a, _b, same in rows
        if not same and field.split(".")[0] not in TIMING_FIELDS
    ]
    assert deterministic_diffs == []
