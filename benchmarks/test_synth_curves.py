"""Benchmarks the synthesizer pipeline: generation and a knob sweep.

Two timed passes:

* population generation — specs to compiled-ready ``BugBenchmark``
  objects with resolved anchors; pins that scaling the corpus from 31
  to hundreds of programs stays interactive (generation is string
  assembly plus one ``line_of`` scan, no compilation);
* a small ``experiment curves`` sweep on a disk-cached executor — the
  accuracy-curve acceptance path end to end (generate, diagnose with
  the paper tool and the sampling baseline, aggregate, render), with
  its determinism contract asserted against a re-render on a default
  executor.

``REPRO_BENCH_SMOKE=1`` shrinks both for the CI floor.
"""

import os

from conftest import run_once

from repro.bugs import synth
from repro.experiments import curves
from repro.runtime.executor import CampaignExecutor


def _smoke():
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_population_generation(benchmark):
    n = 100 if _smoke() else 500

    def generate():
        bugs = [synth.make_benchmark(spec)
                for spec in synth.population(n, seed=0)]
        # Touch the anchors so memoized class construction is timed.
        return sum(bug.root_cause_lines[0] for bug in bugs)

    synth._CLASS_CACHE.clear()
    total = run_once(benchmark, generate)
    assert total > 0
    assert len(synth.population_names(n, seed=0)) == n


def test_curves_sweep(benchmark, tmp_path, save_result):
    per_point = 2 if _smoke() else 5
    baseline_runs = 40 if _smoke() else 200
    kwargs = dict(knob="propagation", points=2, per_point=per_point,
                  baseline_runs=baseline_runs, seed=0)

    executor = CampaignExecutor(cache=True, cache_dir=tmp_path / "cache")
    result = run_once(
        benchmark, lambda: curves.run(executor=executor, **kwargs))
    save_result(result)

    assert len(result.rows) == 2
    assert all(row[1] == per_point for row in result.rows)
    # The easiest point is a guaranteed paper-tool diagnosis...
    assert result.rows[0][2] == "100%"
    # ...and the cached table matches a default re-render byte for byte.
    assert result.format() == curves.run(**kwargs).format()
