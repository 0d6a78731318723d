"""Benchmarks the campaign executor: a cold campaign vs a warm cache.

The unit of work is a CBI diagnosis of the ``sort`` bug — one campaign
of many independent runs, the shape the executor is built for.  Two
timings, both producing bit-identical rankings:

* ``sequential``   — the tool's own default executor (the baseline the
  replay must match);
* ``warm_cache``   — a second executor replaying every run from the
  on-disk cache left by a first (untimed) pass.

``REPRO_SCALING_RUNS`` shrinks the campaign for a quick smoke pass
(default 300 failing + 300 passing runs).
"""

import os

from conftest import run_once

from repro.bugs.registry import get_bug
from repro.core.api import get_tool
from repro.experiments.report import executor_stats_result
from repro.runtime.executor import CampaignExecutor


def scaling_runs():
    return int(os.environ.get("REPRO_SCALING_RUNS", "300"))


def _diagnose(executor=None):
    tool = get_tool("cbi")(get_bug("sort"), executor=executor)
    n = scaling_runs()
    return tool.run_diagnosis(n_failures=n, n_successes=n)


def _signature(diagnosis):
    return [repr(score) for score in diagnosis.ranked]


_SEQUENTIAL_SIGNATURE = None


def sequential_signature():
    """The reference ranking, computed once (untimed) per session."""
    global _SEQUENTIAL_SIGNATURE
    if _SEQUENTIAL_SIGNATURE is None:
        _SEQUENTIAL_SIGNATURE = _signature(_diagnose())
    return _SEQUENTIAL_SIGNATURE


def test_executor_sequential_baseline(benchmark):
    diagnosis = run_once(benchmark, _diagnose)
    assert _signature(diagnosis) == sequential_signature()


def test_executor_warm_cache_replay(benchmark, tmp_path, save_result):
    cache_dir = tmp_path / "cache"
    # Warm the cache, untimed.
    _diagnose(executor=CampaignExecutor(cache=True, cache_dir=cache_dir))
    executor = CampaignExecutor(cache=True, cache_dir=cache_dir)
    diagnosis = run_once(benchmark, lambda: _diagnose(executor=executor))
    stats = executor.stats
    save_result(executor_stats_result(executor))
    assert _signature(diagnosis) == sequential_signature()
    assert stats.cache_hits == stats.attempts
    assert stats.inline_runs == 0
