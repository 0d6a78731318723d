"""A derived baseline record equals the record of a live observed run.

A CBI-family tool executes each distinct plan once, records its event
stream, and derives each attempt's record from that recording and the
attempt's run seed.  The oracle here is the observers the tools
installed before recordings existed, one live sampled run per record,
copied below with the countdown sampler they drove.  For every tool
configuration of the grid, on failing and passing plans and several run
seeds, the derived record must equal the live one: the whole dict, and
the order in which ``predicates`` registered.
"""

import math
import random

import pytest

from repro.baselines.cbi import BaselineUnsupportedError, CbiTool
from repro.baselines.cbi_adaptive import CbiAdaptiveTool
from repro.baselines.cci import CciTool
from repro.baselines.pbi import PbiTool
from repro.baselines.scoring import RunObservation
from repro.bugs import synth
from repro.bugs.registry import all_bugs, get_bug
from repro.isa.instructions import Opcode
from repro.isa.layout import STACK_REGION_BASE
from repro.runtime.process import execute_plan

_POPULATION = sorted(all_bugs(), key=lambda bug: bug.name) + [
    get_bug(name) for name in synth.population_names(8, seed=0)]

#: run seeds derived for each plan
RUN_SEEDS = (0, 7, 40)


# ----------------------------------------------------------------------
# The oracle: live observed runs
# ----------------------------------------------------------------------

class CountdownSampler:
    """Bernoulli(rate) sampling by a geometric countdown, one
    observation at a time."""

    def __init__(self, rate, seed):
        self.rate = rate
        self._rng = random.Random(seed)
        self._countdown = self._draw()
        self.samples = 0

    def _draw(self):
        if self.rate >= 1.0:
            return 1
        u = self._rng.random()
        return max(1, int(math.ceil(math.log(1.0 - u)
                                    / math.log(1.0 - self.rate))))

    def should_sample(self):
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._draw()
            self.samples += 1
            return True
        return False


def _record(failed, true_predicates, observed_sites, events=0, samples=0,
            predicates=None):
    return {
        "observation": RunObservation(
            failed=failed,
            true_predicates=frozenset(true_predicates),
            observed_sites=frozenset(observed_sites),
        ),
        "events": events,
        "samples": samples,
        "predicates": predicates if predicates is not None else {},
    }


def attach_cbi(tool, machine, run_seed):
    sampler = CountdownSampler(tool.sampling_rate,
                               (tool.seed, run_seed).__hash__())
    true_predicates = set()
    observed_sites = set()
    tags = tool._conditional_tags
    events = 0

    def observer(thread, instr, taken, target):
        nonlocal events
        tag = tags.get(instr.address)
        if tag is None:
            return
        events += 1
        if not sampler.should_sample():
            return
        outcome = tag.outcome if taken else (not tag.outcome)
        true_predicates.add(tag.branch_id + ("=T" if outcome else "=F"))
        observed_sites.add(tag.branch_id)

    machine.branch_observers.append(observer)
    return lambda failed: _record(failed, true_predicates, observed_sites,
                                  events=events, samples=sampler.samples)


def attach_cci(tool, machine, run_seed):
    sampler = CountdownSampler(tool.sampling_rate,
                               (tool.seed, run_seed).__hash__())
    true_predicates = set()
    observed_sites = set()
    last_accessor = {}
    debug = tool.program.debug_info
    predicates = {}
    events = 0

    def observer(thread, pc, access, state, address):
        nonlocal events
        if address >= STACK_REGION_BASE:
            return
        events += 1
        previous = last_accessor.get(address)
        last_accessor[address] = thread.tid
        if not sampler.should_sample():
            return
        location = debug.location_at(pc)
        if location is None:
            return
        site = "%s:%s" % (location, access.value)
        remote = previous is not None and previous != thread.tid
        true_predicates.add("%s:%s" % (site, "remote" if remote
                                       else "local"))
        observed_sites.add(site)
        for flavor in ("remote", "local"):
            predicates.setdefault(
                "%s:%s" % (site, flavor),
                (site, location.function, location.line, flavor))

    machine.coherence_observers.append(observer)
    return lambda failed: _record(failed, true_predicates, observed_sites,
                                  events=events, samples=sampler.samples,
                                  predicates=predicates)


def attach_pbi(tool, machine, run_seed):
    true_predicates = set()
    observed_sites = set()
    debug = tool.program.debug_info
    predicates = {}
    samples = 0

    def hook(pc, access, state):
        nonlocal samples
        samples += 1
        location = debug.location_at(pc)
        if location is None:
            return
        site = "%s:%s" % (location, access.value)
        predicate_id = "%s:%s@%s" % (site, access.value, state.letter)
        true_predicates.add(predicate_id)
        observed_sites.add(site)
        predicates.setdefault(
            predicate_id,
            (site, location.function, location.line,
             "%s@%s" % (access.value, state.letter)))

    for index, core in enumerate(machine.cores):
        core.counters.set_sample_hook(tool.sample_period, hook)
        core.counters._sample_countdown = 1 + (
            (run_seed + index * 7) % tool.sample_period)
    return lambda failed: _record(
        failed, true_predicates, observed_sites,
        events=sum(core.counters.total() for core in machine.cores),
        samples=samples, predicates=predicates)


def attach_adaptive(tool, machine, run_seed):
    active = tool._active_sites
    tags = {
        instr.address: tool.program.debug_info.branches[instr.address]
        for instr in tool.program.instructions
        if instr.opcode in (Opcode.JZ, Opcode.JNZ)
        and instr.address in tool.program.debug_info.branches
    }
    true_predicates = set()
    observed_sites = set()

    def observer(thread, instr, taken, target):
        tag = tags.get(instr.address)
        if tag is None or tag.branch_id not in active:
            return
        outcome = tag.outcome if taken else (not tag.outcome)
        true_predicates.add(tag.branch_id + ("=T" if outcome else "=F"))
        observed_sites.add(tag.branch_id)

    machine.branch_observers.append(observer)
    return lambda failed: _record(failed, true_predicates, observed_sites)


ORACLES = {CbiTool: attach_cbi, CciTool: attach_cci, PbiTool: attach_pbi,
           CbiAdaptiveTool: attach_adaptive}


def live_record(tool, plan, run_seed):
    """The record of one live observed run of *plan*."""
    finishers = []
    status = execute_plan(
        tool.program, plan, tool.machine_config,
        attach=lambda machine: finishers.append(
            ORACLES[type(tool)](tool, machine, run_seed)),
    ).status
    failed = tool.workload.is_failure(status)
    return dict(finishers[0](failed), failed=failed, retired=status.retired)


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------

def tool_configurations(workload):
    """``(label, tool)`` for each configuration of the grid that applies
    to *workload*: CBI at three rates, CCI at two, PBI at three periods,
    and CBI-adaptive with its widest wave and a narrow one."""
    try:
        for rate in (None, 0.3, 1.0):
            options = {} if rate is None else {"sampling_rate": rate}
            yield "cbi@%s" % rate, CbiTool(workload, **options)
    except BaselineUnsupportedError:
        pass
    yield "cci", CciTool(workload)
    yield "cci@0.5/seed3", CciTool(workload, sampling_rate=0.5, seed=3)
    for period in (1, 7, 100):
        yield "pbi/%d" % period, PbiTool(workload, sample_period=period)
    widest = CbiAdaptiveTool(workload)
    widest._active_sites = set().union(*widest._sites_by_function.values())
    yield "adaptive/widest", widest
    narrow = CbiAdaptiveTool(workload)
    narrow._active_sites = set(narrow._sites_by_function.get(
        narrow._failure_function(), ()))
    yield "adaptive/narrow", narrow


def assert_replays_like_live(workload, run_seeds=RUN_SEEDS):
    """Every configuration's derived records of *workload*'s first
    failing and first passing plan equal live observed runs' records;
    returns the number of records compared."""
    compared = 0
    plans = (("failing", workload.failing_run_plan(0)),
             ("passing", workload.passing_run_plan(0)))
    for label, tool in tool_configurations(workload):
        for phase, plan in plans:
            recording = tool._record(plan)
            for run_seed in run_seeds:
                where = "%s %s %s run seed %d" % (
                    workload.name, label, phase, run_seed)
                derived = tool.derive(recording, run_seed)
                live = live_record(tool, plan, run_seed)
                assert derived == live, where
                assert list(derived["predicates"]) \
                    == list(live["predicates"]), where
                compared += 1
    return compared


@pytest.mark.parametrize("bug", _POPULATION, ids=lambda bug: bug.name)
def test_derived_records_equal_live_runs(bug):
    assert assert_replays_like_live(bug) > 0


def test_the_grid_samples_and_registers_predicates():
    """The comparison is not vacuous: on a concurrency bug the grid's
    live runs sample events on more than one core and register
    predicates in a first-sampled order."""
    bug = get_bug("mysql1")
    tool = PbiTool(bug, sample_period=1)
    record = live_record(tool, bug.failing_run_plan(0), 0)
    assert record["samples"] == record["events"] > 0
    assert len(record["predicates"]) > 1
    cores = {core for core, _pc, _access, _state
             in tool._record(bug.failing_run_plan(0)).events}
    assert len(cores) > 1
