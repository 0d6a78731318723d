"""The threaded-backend performance gate.

Pins the two halves of the :mod:`repro.machine.backends` contract:

* **equivalence** — the table 5/6/7 experiment drivers render
  byte-identical output under the ``reference`` and ``threaded``
  backends (campaign sizes are scaled down; conformance against the
  paper's values at full size is ``repro obs conformance``'s job);
* **speedup** — the threaded backend executes the Table 5 application
  workloads at least ``3x`` faster than the reference interpreter (at
  least ``2x`` under ``REPRO_BENCH_SMOKE=1``, the CI floor: shared
  runners time noisily).

The speedup is measured on direct VM execution of the Table 5 bugs
(`repro.bugs.registry.sequential_bugs`), not on ``table5.run()``
itself: the Table 5 *driver* is a static CFG analysis that never
executes a VM instruction, so its wall-clock is backend-invariant by
construction.  The campaign drivers (tables 6/7) do execute machines
but dilute the interpreter with per-run machine construction, profile
extraction, and ranking; ``docs/performance.md`` documents the full
time-split and the end-to-end driver numbers.
"""

import os
import time

from conftest import RESULTS_DIR, run_once

from repro.bugs.registry import sequential_bugs
from repro.compiler.frontend import compile_module
from repro.experiments import table5, table6, table7
from repro.machine.backends import use_backend
from repro.machine.cpu import MachineConfig
from repro.runtime.process import execute_plan


def _run_with(backend, fn):
    with use_backend(backend):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
    return result.format(), elapsed


def _speedup_floor():
    return 2.0 if os.environ.get("REPRO_BENCH_SMOKE") else 3.0


def _table5_workloads():
    """(program, plan, num_cores) for every Table 5 application run."""
    workloads = []
    for bug in sequential_bugs():
        program = compile_module(bug.build_module())
        workloads.append((program, bug.failing_run_plan(0),
                          bug.num_cores))
    return workloads


def _execute_seconds(backend, workloads, reps=3):
    """Best-of-*reps* seconds to run every workload on *backend*."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        for program, plan, num_cores in workloads:
            config = MachineConfig(num_cores=num_cores, backend=backend)
            execute_plan(program, plan, config)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_table5_workload_speedup(benchmark):
    workloads = _table5_workloads()
    # Warm both engines once (closure tables compile lazily per
    # program), then time reference directly and threaded under the
    # benchmark fixture.
    _execute_seconds("threaded", workloads, reps=1)
    reference_seconds = _execute_seconds("reference", workloads)
    threaded_seconds = run_once(
        benchmark, lambda: _execute_seconds("threaded", workloads))
    speedup = reference_seconds / threaded_seconds
    floor = _speedup_floor()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "backend_speedup.txt").write_text(
        "table5 workloads: reference %.3fs, threaded %.3fs, "
        "speedup %.2fx\n"
        % (reference_seconds, threaded_seconds, speedup))
    assert speedup >= floor, (
        "threaded backend only %.2fx faster than reference on the "
        "Table 5 workloads (floor %.1fx; reference %.2fs, threaded "
        "%.2fs)" % (speedup, floor, reference_seconds, threaded_seconds))
    print("\ntable5 workload speedup: %.2fx (reference %.3fs, threaded "
          "%.3fs)" % (speedup, reference_seconds, threaded_seconds))


def test_table5_output_identical(benchmark):
    reference_text, _ = _run_with("reference", table5.run)
    threaded_text, _ = run_once(
        benchmark, lambda: _run_with("threaded", table5.run))
    assert threaded_text == reference_text


def test_table6_output_identical(benchmark):
    def run():
        return table6.run(cbi_runs=25, overhead_runs=1)

    reference_text, _ = _run_with("reference", run)
    threaded_text, _ = run_once(
        benchmark, lambda: _run_with("threaded", run))
    assert threaded_text == reference_text


def test_table7_output_identical(benchmark):
    reference_text, _ = _run_with("reference", table7.run)
    threaded_text, _ = run_once(
        benchmark, lambda: _run_with("threaded", table7.run))
    assert threaded_text == reference_text
