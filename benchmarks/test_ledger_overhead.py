"""Run-ledger append overhead on ``experiment table5``.

The flight recorder's contract is that recording is cheap enough to be
on by default in the CLI: one JSONL append per *invocation* (not per
run), which reads only the ledger's last line to number the entry.
This benchmark pins that on a full experiment: table5 with a real
ledger installed must stay within ``REPRO_LEDGER_OVERHEAD_BOUND``
(default 2%) of the same experiment with the no-op ledger (the library
default).
"""

import os
import time

from conftest import run_once

from repro.experiments import table5
from repro.obs.ledger import Ledger, NULL_LEDGER, get_ledger, use


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_ledger_append_overhead_is_bounded(benchmark, tmp_path):
    bound = float(os.environ.get("REPRO_LEDGER_OVERHEAD_BOUND", "0.02"))
    table5.run()                                   # warm imports/caches

    ledger = Ledger(tmp_path / "ledger")

    def recorded_run():
        with use(ledger):
            table5.run()

    # Interleave the two variants so clock drift (cache warmth, cpu
    # frequency, background load) hits both equally; compare bests.
    disabled = recorded = None
    for _ in range(7):
        sample = _timed(lambda: table5.run())
        disabled = sample if disabled is None else min(disabled, sample)
        sample = _timed(recorded_run)
        recorded = sample if recorded is None else min(recorded, sample)
    run_once(benchmark, table5.run)                # report wall-clock

    assert recorded <= disabled * (1.0 + bound), (
        "ledger-recorded table5 took %.4fs vs %.4fs without "
        "(bound %.0f%%)" % (recorded, disabled, 100.0 * bound)
    )
    # The default path really recorded nothing...
    assert get_ledger() is NULL_LEDGER
    # ...and the recorded path appended one entry per invocation.
    entries = ledger.entries(kind="experiment")
    assert len(entries) == 7
    assert len({e["entry_id"] for e in entries}) == 1    # deterministic
