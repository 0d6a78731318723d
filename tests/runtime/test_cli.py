"""Tests for the command-line interface."""

import contextlib
import importlib.util
import io
import pathlib
import re

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_bugs_lists_all_31():
    code, text = run_cli("bugs")
    assert code == 0
    assert len(text.strip().splitlines()) == 31
    assert "sort" in text
    assert "Figure" not in text


def test_run_failing():
    code, text = run_cli("run", "sort")
    assert code == 0
    assert "classified as failure: True" in text


def test_run_passing():
    code, text = run_cli("run", "sort", "--passing")
    assert code == 0
    assert "classified as failure: False" in text


def test_log_report():
    code, text = run_cli("log", "sort")
    assert code == 0
    assert "LBRLOG" in text
    assert "root-cause event position:" in text
    assert "None" not in text.splitlines()[-1]


def test_log_concurrency():
    code, text = run_cli("log", "mozilla-js3")
    assert code == 0
    assert "LCRLOG" in text


def test_diagnose():
    code, text = run_cli("diagnose", "apache3", "--runs", "6")
    assert code == 0
    assert "LBRA diagnosis" in text


def test_diagnose_prints_statistics_only_with_cache(tmp_path):
    code, default = run_cli("diagnose", "sort", "--no-ledger")
    assert code == 0
    assert "Campaign executor statistics" not in default
    code, cached = run_cli("diagnose", "sort", "--no-ledger", "--cache",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    above, _block = cached.split("\nCampaign executor statistics\n")
    assert above == default


def test_removed_flags_are_rejected(capsys):
    for flag in ("--jobs", "--resume"):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("diagnose", "sort", flag, "2")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: %s" % flag \
            in capsys.readouterr().err


def test_experiments_listing():
    code, text = run_cli("experiments")
    assert code == 0
    names = text.split()
    assert "table6" in names
    assert "ablation-pollution" in names


def test_experiment_runs():
    code, text = run_cli("experiment", "table1")
    assert code == 0
    assert "IA32_DEBUGCTL" in text


def test_experiment_unknown():
    code, text = run_cli("experiment", "nope")
    assert code == 1
    assert "unknown experiment" in text


def test_unknown_bug_rejected():
    with pytest.raises(SystemExit):
        run_cli("run", "not-a-bug")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("repro ")


def test_ledger_path_reports_location_and_count(tmp_path):
    ledger_dir = tmp_path / "flight"
    code, text = run_cli("ledger", "path", "--ledger-dir",
                         str(ledger_dir))
    assert code == 0
    assert str(ledger_dir) in text
    assert "0 entries" in text


def test_diagnose_records_to_ledger(tmp_path):
    from repro.obs.ledger import Ledger

    ledger_dir = tmp_path / "led"
    code, _text = run_cli("diagnose", "apache3", "--runs", "4",
                          "--ledger-dir", str(ledger_dir))
    assert code == 0
    entries = Ledger(str(ledger_dir)).entries(kind="diagnosis")
    assert len(entries) == 1
    assert entries[0]["workload"] == "apache3"


def test_diagnose_no_ledger_skips_recording(monkeypatch, tmp_path):
    from repro.obs.ledger import Ledger, resolve_ledger_dir

    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
    code, _text = run_cli("diagnose", "apache3", "--runs", "4",
                          "--no-ledger")
    assert code == 0
    assert Ledger(resolve_ledger_dir()).entries() == []


def test_diagnose_json_has_provenance_and_explain_renders(tmp_path):
    import json

    report_path = tmp_path / "report.json"
    code, _text = run_cli("diagnose", "apache3", "--runs", "4",
                          "--json-out", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert all(row["provenance"] is not None for row in report["ranked"])
    assert report["ranked"][0]["provenance"]["supporting_runs"]

    code, text = run_cli("obs", "explain", str(report_path), "--top", "2")
    assert code == 0
    assert "supported by:" in text
    assert "precision" in text


def test_obs_report_rejects_non_trace(tmp_path):
    bad = tmp_path / "metrics.json"
    bad.write_text('{"counters": {"a": 1}}\n')
    code, text = run_cli("obs", "report", str(bad))
    assert code == 2
    assert "not a span trace" in text
    assert len(text.strip().splitlines()) == 1


def test_obs_report_rejects_non_json(tmp_path):
    bad = tmp_path / "garbage.jsonl"
    bad.write_text("definitely not json\n")
    code, text = run_cli("obs", "report", str(bad))
    assert code == 2
    assert "not a span trace" in text


def test_obs_explain_rejects_non_report(tmp_path):
    bad = tmp_path / "other.json"
    bad.write_text('{"counters": {}}\n')
    code, text = run_cli("obs", "explain", str(bad))
    assert code == 2
    assert "not a diagnosis report" in text


def test_obs_flame_renders_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    folded = tmp_path / "out.folded"
    code, _text = run_cli("run", "sort", "--trace", str(trace))
    assert code == 0
    code, text = run_cli("obs", "flame", str(trace), "--folded",
                         str(folded))
    assert code == 0
    assert "Flame view" in text
    assert "#" in text
    assert folded.read_text().strip()


def test_obs_flame_rejects_non_trace(tmp_path):
    bad = tmp_path / "nope.jsonl"
    bad.write_text('{"x": 1}\n')
    code, text = run_cli("obs", "flame", str(bad))
    assert code == 2
    assert "not a span trace" in text


def test_obs_trends_flags_injected_regression(tmp_path):
    from repro.obs.ledger import Ledger

    ledger_dir = str(tmp_path / "led")
    code, _text = run_cli("diagnose", "apache3", "--runs", "4",
                          "--ledger-dir", ledger_dir)
    assert code == 0
    ledger = Ledger(ledger_dir)
    good = ledger.entries()[-1]
    ledger.append(
        kind=good["kind"], tool=good["tool"], workload=good["workload"],
        seed=good["seed"], params=good["params"],
        quality=dict(good["quality"], root_cause_rank=7),
        runs=good["runs"],
        provenance_digest=good["provenance_digest"],
        timings=good["timings"],
    )
    code, text = run_cli("obs", "trends", "--ledger-dir", ledger_dir)
    assert code == 1
    assert "REGRESSION" in text

    code, _text = run_cli("obs", "trends", "--ledger-dir", ledger_dir,
                          "--rank-threshold", "10")
    assert code == 0


def test_obs_compare_two_entries(tmp_path):
    ledger_dir = str(tmp_path / "led")
    for runs in ("4", "6"):
        code, _text = run_cli("diagnose", "apache3", "--runs", runs,
                              "--ledger-dir", ledger_dir)
        assert code == 0
    code, text = run_cli("obs", "compare", "@0", "@1", "--ledger-dir",
                         ledger_dir)
    assert code == 0
    assert "Ledger compare" in text
    assert "params.n_failures" in text


def test_obs_compare_bad_reference(tmp_path):
    code, text = run_cli("obs", "compare", "@0", "@1", "--ledger-dir",
                         str(tmp_path / "empty"))
    assert code == 1
    assert "empty" in text


def test_obs_conformance_table5():
    code, text = run_cli("obs", "conformance", "table5", "--no-ledger")
    assert code == 0
    assert "ok   table5" in text


def test_obs_conformance_unknown_table():
    code, text = run_cli("obs", "conformance", "table99", "--no-ledger")
    assert code == 1
    assert "unknown conformance driver" in text


# ----------------------------------------------------------------------
# main() builds only the named command's parser: same bytes as the tree
# ----------------------------------------------------------------------

def _load_check_docs():
    path = pathlib.Path(__file__).resolve().parents[2] / "tools" \
        / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()
COMMANDS = sorted(check_docs.cli_commands())


def parse_outcome(parser, argv):
    """The Namespace *parser* makes of *argv*, or what it printed and
    the exit code it raised instead."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), stderr.getvalue()


def parsers_by_path(parser, path=()):
    """``{path: parser}`` for *parser* and every nested subcommand."""
    found = {path: parser}
    for name, sub in check_docs.subcommands(parser).items():
        found.update(parsers_by_path(sub, path + (name,)))
    return found


def documented_command_lines():
    """The argv of each ``repro`` command line in the checked docs."""
    lines = set()
    for path in check_docs.doc_files():
        text = path.read_text()
        for match in check_docs.COMMAND_RE.finditer(text):
            span = text[match.start():]
            if span.startswith("`"):
                span = span[1:span.index("`", 1)]
            else:
                span = re.split(r"[`#\n]", span.replace("\\\n", " "),
                                maxsplit=1)[0]
            words = span.split()
            lines.add(tuple(words[words.index("repro") + 1:]))
    return sorted(lines)


def test_check_docs_walks_the_full_tree():
    assert COMMANDS == sorted(
        ["bugs", "run", "log", "diagnose", "experiments", "experiment",
         "triage", "synth", "resume", "ledger", "obs"])
    commands = check_docs.cli_commands()
    assert commands["obs"] >= {"report", "watch", "conformance"}
    assert commands["synth"] == {"list", "show", "emit"}
    assert commands["ledger"] == {"path"}
    assert {"--json-out", "--snapshot-out", "--interval",
            "--baseline-runs"} <= check_docs.cli_flags()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_has_the_same_help(command):
    alone = parsers_by_path(check_docs.subcommands(
        build_parser(command))[command])
    full = parsers_by_path(check_docs.subcommands(
        build_parser())[command])
    assert list(alone) == list(full)
    for path, parser in full.items():
        assert alone[path].format_help() == parser.format_help(), path


def test_one_command_parser_parses_every_documented_line_alike():
    lines = [argv for argv in documented_command_lines()
             if argv and argv[0] in COMMANDS]
    assert len(lines) >= 30
    for argv in lines:
        assert parse_outcome(build_parser(argv[0]), list(argv)) \
            == parse_outcome(build_parser(), list(argv)), argv


@pytest.mark.parametrize("argv", [
    ["diagnose"],
    ["diagnose", "sort", "--tool", "nosuch"],
    ["diagnose", "sort", "--nosuch"],
    ["obs", "watch"],
    ["synth", "emit", "--n", "two"],
])
def test_one_command_parser_fails_alike(argv):
    alone = parse_outcome(build_parser(argv[0]), argv)
    assert alone == parse_outcome(build_parser(), argv)
    code, _stdout, stderr = alone
    assert code == 2 and "error:" in stderr


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["nosuch"], 2), (["--help"], 0), (["-h", "diagnose"], 0),
])
def test_main_without_a_command_prints_every_command(argv, code, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == code
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert "{%s}" % ",".join(check_docs.subcommands(build_parser())) \
        in printed
    for command in COMMANDS:
        assert command in printed
