"""Tests for folded-stack collapsing and the text flame view."""

import pytest

from repro.obs import Observability, use
from repro.obs.flame import (
    collapse_profile,
    collapse_spans,
    format_folded,
    render_flame,
    render_flame_file,
)
from repro.obs.report import NotASpanTrace
from repro.obs.sampling import SampledProfiler


def _sample_records():
    obs = Observability()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
        with obs.span("other"):
            pass
    return list(obs.tracer.records)


def test_collapse_spans_folds_paths():
    folded = collapse_spans(_sample_records())
    assert set(folded) == {"outer", "outer;inner", "outer;other"}
    assert all(value >= 0 for value in folded.values())


def test_collapse_spans_self_time_excludes_children():
    records = [
        {"name": "outer", "path": "outer", "start": 0.0, "dur": 10.0},
        {"name": "inner", "path": "outer/inner", "start": 1.0,
         "dur": 4.0},
        {"name": "leaf", "path": "outer/inner/leaf", "start": 2.0,
         "dur": 1.0},
    ]
    folded = collapse_spans(records)
    assert folded["outer"] == pytest.approx(6.0)
    assert folded["outer;inner"] == pytest.approx(3.0)
    assert folded["outer;inner;leaf"] == pytest.approx(1.0)


def test_collapse_spans_rejects_non_trace():
    with pytest.raises(NotASpanTrace):
        collapse_spans([{"hello": 1}])


def test_collapse_profile_by_line():
    from repro.bugs.registry import get_bug
    from repro.core.lbrlog import LbrLogTool

    bug = get_bug("sort")
    tool = LbrLogTool(bug)
    profiler = SampledProfiler(period=7)
    plan = bug.failing_run_plan(0)
    from repro.machine.cpu import Machine

    machine = Machine(tool.program, config=tool.machine_config,
                      scheduler=plan.make_scheduler())
    machine.load(args=plan.args)
    profiler.install(machine)
    machine.run(max_steps=plan.max_steps)
    folded = collapse_profile(profiler, tool.program)
    assert folded
    assert sum(folded.values()) == profiler.sample_count
    assert any(";" in stack for stack in folded if stack != "?")


def test_format_folded_canonical():
    text = format_folded({"a;b": 2, "a": 1.5})
    assert text.splitlines() == ["a 1.500000", "a;b 2"]


def test_render_flame_shape():
    folded = {"outer": 6.0, "outer;inner": 3.0, "outer;other": 1.0}
    text = render_flame(folded, width=20)
    lines = text.splitlines()
    assert "3 stacks" in lines[0]
    assert lines[1].startswith("outer")
    # Children indented, heaviest first.
    assert lines[2].strip().startswith("inner")
    assert lines[3].strip().startswith("other")
    assert "#" in lines[1]
    assert "%" in lines[1]


def test_render_flame_empty():
    assert "nothing to render" in render_flame({})


def test_render_flame_file_and_folded_out(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs = Observability()
    with obs.span("campaign"):
        with obs.span("run"):
            pass
    obs.tracer.export_jsonl(str(trace))
    folded_path = tmp_path / "out.folded"
    text = render_flame_file(str(trace), folded_out=str(folded_path))
    assert "campaign" in text
    content = folded_path.read_text()
    assert "campaign;run" in content


def test_obs_flame_reads_a_torn_trace_like_obs_report(tmp_path):
    from tests.runtime.test_cli import run_cli

    trace = tmp_path / "trace.jsonl"
    obs = Observability()
    with obs.span("campaign"):
        with obs.span("run"):
            pass
    obs.tracer.export_jsonl(str(trace))
    # A writer killed mid-export: half of one more line lands.
    with open(trace, "a") as handle:
        handle.write('{"name": "cut", "pa')
    for command in ("report", "flame"):
        code, text = run_cli("obs", command, str(trace))
        assert code == 0, text
        assert "campaign" in text
        assert "skipped 1 torn/corrupt line" in text
