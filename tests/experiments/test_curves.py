"""The knob-sweep experiment driver (:mod:`repro.experiments.curves`).

Pins the tentpole determinism contract: the rendered table is a pure
function of ``(knob, points, per_point, seed)`` — byte-identical across
execution backends and cache states — and every (bug, tool) cell
leaves one content-keyed ledger entry.
"""

import pytest

from repro.bugs import synth
from repro.experiments import curves
from repro.machine.backends import use_backend
from repro.obs.ledger import Ledger, use as use_ledger
from repro.runtime.executor import CampaignExecutor

# A deliberately small sweep: 2 points x 2 bugs, cheap baseline.
SMOKE = dict(knob="propagation", points=2, per_point=2,
             baseline_runs=30, seed=0)


def _render(executor=None):
    return curves.run(executor=executor, **SMOKE).format()


def test_smoke_table_shape():
    result = curves.run(**SMOKE)
    assert len(result.rows) == 2
    assert result.rows[0][0] == synth.KNOB_RANGES["propagation"][0]
    assert result.rows[-1][0] == synth.KNOB_RANGES["propagation"][1]
    assert all(row[1] == 2 for row in result.rows)       # bugs per point
    assert "LBRA top-1" in result.headers
    assert "CBI top-1" in result.headers
    text = result.format()
    assert "docs/synth.md" in text
    # The easiest point diagnoses perfectly with the paper tool.
    assert result.rows[0][2] == "100%"


def test_rendered_table_is_deterministic():
    assert _render() == _render()


@pytest.mark.parametrize("backend", ["reference", "threaded"])
def test_byte_identical_across_backends_and_cache_states(backend, tmp_path):
    with use_backend("reference"):
        reference = _render()
    with use_backend(backend):
        executor = CampaignExecutor(cache=True,
                                    cache_dir=str(tmp_path / "cache"))
        cold = _render(executor=executor)
        warm = _render(executor=CampaignExecutor(
            cache=True, cache_dir=str(tmp_path / "cache")))
    assert cold == reference
    assert warm == reference
    assert executor.stats.cache_misses > 0


def test_one_content_keyed_ledger_entry_per_cell(tmp_path):
    def entries(directory):
        with use_ledger(Ledger(str(directory))):
            curves.run(**SMOKE)
        return Ledger(str(directory)).entries()

    first = entries(tmp_path / "a")
    second = entries(tmp_path / "b")
    assert [e["entry_id"] for e in first] \
        == [e["entry_id"] for e in second]
    diagnoses = [e for e in first if e["kind"] == "diagnosis"]
    # 2 points x 2 bugs x 2 tools (paper + baseline) = 8 cells; the
    # driver records exactly one diagnosis entry per cell.
    cells = {(e["workload"], e["tool"]) for e in diagnoses}
    assert len(diagnoses) == len(cells) == 8
    assert all(e["workload"].startswith("synth-seq-")
               for e in diagnoses)
    # ... plus the experiment-level entry from @traced.
    assert any(e["kind"] == "experiment" for e in first)


def test_unknown_knob_rejected():
    with pytest.raises(synth.SynthSpecError):
        curves.run(knob="nope", points=2, per_point=1)
