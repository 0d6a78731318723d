"""The unified diagnosis-tool API: registry, reports, validation."""

import json

import pytest

from repro.bugs.registry import get_bug
from repro.core.api import (
    DiagnosisReport,
    DiagnosisTool,
    available_tools,
    get_log_tool,
    get_tool,
    register_tool,
    unregister_tool,
    validate_options,
)
from repro.core.lbra import LbraTool
from repro.core.lbrlog import LbrLogTool
from repro.core.lcrlog import LcrLogTool

#: Per-tool (bug, campaign size) small enough for test time but large
#: enough that every tool completes a campaign.
TOOL_FIXTURES = {
    "lbra": ("sort", 3),
    "lcra": ("apache4", 3),
    "cbi": ("sort", 10),
    "cci": ("apache4", 10),
    "pbi": ("sort", 10),
}


@pytest.mark.parametrize("name", sorted(TOOL_FIXTURES))
def test_every_tool_conforms_to_the_protocol(name):
    bug_name, runs = TOOL_FIXTURES[name]
    tool = get_tool(name)(get_bug(bug_name), seed=0)
    report = tool.run_diagnosis(n_failures=runs, n_successes=runs)

    assert isinstance(report, DiagnosisReport)
    assert report.tool == name
    assert report.workload == bug_name
    assert report.runs_used["failures"] >= 1
    assert report.timings["diagnose_seconds"] > 0
    assert isinstance(report.ranked, list)
    # The whole report (minus .raw) survives JSON round-trip.
    decoded = json.loads(report.to_json())
    assert decoded["tool"] == name
    assert decoded["ranked"] == report.ranked
    assert report.raw is not None                 # native result reachable


def test_report_json_round_trip_equals_to_dict():
    report = get_tool("lbra")(get_bug("sort")).run_diagnosis(3, 3)
    assert json.loads(report.to_json()) == report.to_dict()


def test_ranked_rows_are_plain_dicts_with_rank_and_line():
    report = get_tool("lbra")(get_bug("sort")).run_diagnosis(3, 3)
    assert report.ranked, "LBRA on sort should rank predictors"
    row = report.ranked[0]
    assert row["rank"] == 1
    assert isinstance(row["line"], int)
    assert {"function", "f_score", "precision", "recall"} <= set(row)
    # Delegating conveniences hit the native result.
    assert report.best() is report.raw.best()
    assert "diagnosis" in report.describe(n=1)


# ----------------------------------------------------------------------
# The pluggable registry
# ----------------------------------------------------------------------

def test_get_tool_rejects_unknown_names():
    with pytest.raises(KeyError, match="cbi.*lbra|lbra.*cbi|registered"):
        get_tool("lbrx")
    assert available_tools() == ["cbi", "cci", "lbra", "lcra", "pbi"]


def test_register_tool_plugs_into_every_dispatcher():
    class EchoDiagnosisTool(DiagnosisTool):
        name = "echo"
        _impl = ("repro.core.lbra", "LbraTool")
        default_runs = 2

    register_tool("echo", EchoDiagnosisTool)
    try:
        assert get_tool("echo") is EchoDiagnosisTool
        assert "echo" in available_tools()
        report = get_tool("echo")(get_bug("sort")).run_diagnosis(2, 2)
        assert report.tool == "echo"          # name bound by the registry
    finally:
        unregister_tool("echo")
    assert "echo" not in available_tools()
    with pytest.raises(KeyError):
        get_tool("echo")


def test_register_tool_validates_its_arguments():
    with pytest.raises(TypeError, match="non-empty string"):
        register_tool("", DiagnosisTool)
    with pytest.raises(TypeError, match="DiagnosisTool subclass"):
        register_tool("bogus", object)
    assert "bogus" not in available_tools()


def test_get_log_tool_resolves_and_rejects():
    assert get_log_tool("lbrlog") is LbrLogTool
    assert get_log_tool("lcrlog") is LcrLogTool
    with pytest.raises(ValueError, match="unknown log tool"):
        get_log_tool("lbra")


def test_wrong_tool_keyword_fails_loudly():
    bug = get_bug("sort")
    with pytest.raises(TypeError) as excinfo:
        LbraTool(bug, lcr_selector=2)
    message = str(excinfo.value)
    assert "lcr_selector" in message
    assert "accepted options" in message
    assert "scheme" in message                    # lists what *is* accepted
    with pytest.raises(TypeError, match="sampling_rate"):
        get_tool("pbi")(get_bug("sort"), sampling_rate=0.5)


def test_tools_take_no_obs_option():
    """Tools record into the installed Observability; a per-tool
    ``obs=`` is an unknown option like any other."""
    with pytest.raises(TypeError) as excinfo:
        get_tool("lbra")(get_bug("sort"), obs=None)
    message = str(excinfo.value)
    assert "'obs'" in message
    assert "accepted options: executor, scheme, seed, toggling" in message


def test_validate_options_merges_defaults():
    merged = validate_options("T", {"a": 1, "b": 2}, {"b": 9})
    assert merged == {"a": 1, "b": 9}
    with pytest.raises(TypeError, match="'c'"):
        validate_options("T", {"a": 1}, {"c": 3})


def test_tool_specific_options_pass_through():
    tool = get_tool("lcra")(get_bug("apache4"), lcr_selector=1)
    assert tool.tool.lcr_selector == 1
    assert tool.params["lcr_selector"] == 1


def test_run_diagnosis_does_not_warn():
    import warnings

    bug = get_bug("sort")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        LbraTool(bug).run_diagnosis(n_failures=2, n_successes=2)
        get_tool("lbra")(bug).run_diagnosis(n_failures=2, n_successes=2)
