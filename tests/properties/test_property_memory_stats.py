"""Property-based tests for memory and the ranking model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.scoring import RunObservation, liblit_rank
from repro.core.events import Event
from repro.core.profiles import RunProfile
from repro.core.statistics import rank_predictors
from repro.fleet.aggregate import IncrementalRanker
from repro.machine.memory import Memory, SegmentationViolation

addresses = st.integers(min_value=0x100000, max_value=0x100FF8)


@given(st.lists(st.tuples(addresses, st.integers()), max_size=60))
def test_memory_matches_dict_model(writes):
    memory = Memory()
    memory.map_region(0x100000, 0x1000)
    model = {}
    for address, value in writes:
        memory.store(address, value)
        model[address] = value
    for address, value in model.items():
        assert memory.load(address) == value


@given(st.integers(min_value=0x1000, max_value=0x2000000))
def test_unmapped_addresses_always_fault(address):
    memory = Memory()
    memory.map_region(0x100000, 0x100)
    if 0x100000 <= address < 0x100100:
        memory.load(address)
    else:
        try:
            memory.load(address)
        except SegmentationViolation as exc:
            assert exc.address == address
        else:  # pragma: no cover
            raise AssertionError("expected fault at 0x%x" % address)


event_sets = st.sets(st.sampled_from(["a", "b", "c", "d", "e"]),
                     max_size=5)


def _profiles(outcome, sets):
    return [
        RunProfile(
            run_index=index, outcome=outcome, ring="lbr", site_id=0,
            events=tuple(Event(event_id=e, kind="branch") for e in s),
            snapshot=None,
        )
        for index, s in enumerate(sets)
    ]


@given(st.lists(event_sets, min_size=1, max_size=10),
       st.lists(event_sets, max_size=10))
def test_ranking_invariants(failure_sets, success_sets):
    failures = _profiles("failure", failure_sets)
    successes = _profiles("success", success_sets)
    ranked = rank_predictors(failures, successes)
    # Scores are valid probabilities; ranks are dense and ordered.
    previous = None
    for position, score in enumerate(ranked):
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.f_score <= 1.0
        if previous is not None:
            assert score.f_score <= previous.f_score + 1e-12
            assert score.rank >= previous.rank
        previous = score
    if ranked:
        assert ranked[0].rank == 1


@given(st.lists(event_sets, min_size=2, max_size=10),
       st.lists(event_sets, min_size=2, max_size=10))
def test_event_in_every_failure_and_no_success_is_top(failure_sets,
                                                      success_sets):
    marker = "bugmark"
    failure_sets = [set(s) | {marker} for s in failure_sets]
    success_sets = [set(s) - {marker} for s in success_sets]
    ranked = rank_predictors(
        _profiles("failure", failure_sets),
        _profiles("success", success_sets),
    )
    best = [s for s in ranked if s.rank == 1]
    assert any(s.event.event_id == marker for s in best)


@given(st.lists(st.tuples(st.booleans(), event_sets), max_size=12))
def test_incremental_ranking_equals_batch_after_every_prefix(stream):
    ranker = IncrementalRanker()
    failures, successes = [], []
    for index, (failed, ids) in enumerate(stream):
        profile = RunProfile(
            run_index=index, outcome="failure" if failed else "success",
            ring="lbr", site_id=0,
            events=tuple(Event(event_id=e, kind="branch") for e in ids),
            snapshot=None,
        )
        ranker.add(profile)
        (failures if failed else successes).append(profile)
        assert ranker.ranking() == rank_predictors(failures, successes)
    assert ranker.runs_seen == len(stream)


#: predicate id -> (site_id, function, line, detail): two predicates
#: (=T, =F) per site, as the CBI-family tools declare them
PREDICATES = {
    "b%d%s" % (site, suffix): ("b%d" % site, "f", 10 + site, suffix)
    for site in range(3) for suffix in ("=T", "=F")
}


@st.composite
def observations(draw):
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        true = draw(st.frozensets(st.sampled_from(sorted(PREDICATES))))
        extra = draw(st.frozensets(st.sampled_from(["b0", "b1", "b2"])))
        runs.append(RunObservation(
            failed=draw(st.booleans()),
            true_predicates=true,
            observed_sites=extra | {PREDICATES[p][0] for p in true},
        ))
    return runs


@given(observations())
def test_liblit_rank_counts_and_dense_ranks(runs):
    ranked = liblit_rank(runs, PREDICATES)
    for row in ranked:
        site = PREDICATES[row.predicate_id][0]
        true_in = [(position, run.failed)
                   for position, run in enumerate(runs)
                   if row.predicate_id in run.true_predicates]
        assert row.failure_true == sum(failed for _, failed in true_in)
        assert row.success_true == sum(not failed for _, failed in true_in)
        assert row.failure_observed == sum(
            run.failed and site in run.observed_sites for run in runs)
        assert row.success_observed == sum(
            not run.failed and site in run.observed_sites for run in runs)
        assert row.provenance.supporting_runs == tuple(
            "F%d" % position for position, failed in true_in if failed)
        assert row.provenance.opposing_runs == tuple(
            "S%d" % position for position, failed in true_in if not failed)
    if ranked:
        assert ranked[0].rank == 1
    for previous, row in zip(ranked, ranked[1:]):
        assert row.rank - previous.rank in (0, 1)
    for a in ranked:
        for b in ranked:
            assert (a.rank == b.rank) \
                == ((a.importance, a.increase) == (b.importance, b.increase))
