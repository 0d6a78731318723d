"""``repro triage``: the CLI surface and its determinism contract."""

import io
import json
import pathlib

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _table_part(text):
    """Everything before the executor statistics (timing-dependent)."""
    return text.split("Campaign executor statistics")[0].rstrip()


def _ledger_ids(directory):
    ids = []
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        ids.extend(json.loads(line)["entry_id"]
                   for line in path.read_text().splitlines())
    return ids


def test_triage_renders_the_cluster_table(tmp_path):
    code, text = run_cli(
        "triage", "--reports", "8", "--seed", "3", "--runs", "3",
        "--bugs", "sort", "apache1",
        "--ledger-dir", str(tmp_path / "ledger"),
    )
    assert code == 0
    assert "Fleet triage by fault signature" in text
    assert "8 reports clustered into 2 signatures" in text
    assert "ranked #1 for 2/2 labeled clusters" in text


def test_triage_is_cache_invariant(tmp_path):
    """The default run, a cold --cache run and a warm one render
    byte-identical tables and append ledger entries with identical
    content-keyed ids."""
    argv = ["triage", "--reports", "8", "--seed", "3", "--runs", "3",
            "--bugs", "sort", "apache1"]
    cache = ["--cache", "--cache-dir", str(tmp_path / "cache")]
    runs = {}
    for label, flags in (("default", []), ("cold", cache),
                         ("warm", cache)):
        code, text = run_cli(*argv, *flags, "--ledger-dir",
                             str(tmp_path / label))
        assert code == 0
        runs[label] = (text, _ledger_ids(tmp_path / label))
    default_text, default_ids = runs["default"]
    assert "Campaign executor statistics" not in default_text
    for label in ("cold", "warm"):
        text, ids = runs[label]
        assert _table_part(text) == default_text.rstrip()
        assert ids == default_ids


def test_triage_seed_changes_the_mix(tmp_path):
    argv = ["triage", "--reports", "8", "--runs", "3",
            "--bugs", "sort", "apache1", "--no-ledger"]
    _, a = run_cli(*argv, "--seed", "1")
    _, b = run_cli(*argv, "--seed", "2")
    assert a != b                     # report mix shifts with the seed
    _, a2 = run_cli(*argv, "--seed", "1")
    assert a == a2                    # and is reproducible


def test_triage_rejects_unknown_bugs():
    import pytest

    with pytest.raises(SystemExit):
        run_cli("triage", "--bugs", "not-a-bug", "--no-ledger")


def test_convergence_view_shows_triage_series(tmp_path):
    ledger_dir = str(tmp_path / "ledger")
    code, _ = run_cli(
        "triage", "--reports", "6", "--seed", "3", "--runs", "3",
        "--bugs", "sort", "--ledger-dir", ledger_dir,
    )
    assert code == 0
    code, text = run_cli("obs", "trends", "--view", "convergence",
                         "--ledger-dir", ledger_dir)
    assert code == 0
    assert "Per-signature convergence" in text
    assert "sort" in text
    assert "1x" in text               # the rank curve run-length tokens


def test_convergence_view_on_empty_ledger(tmp_path):
    # Exit 2 ("nothing to show"), not 0: a CI job gating on convergence
    # must fail loudly when no triage entries exist yet.
    code, text = run_cli("obs", "trends", "--view", "convergence",
                         "--ledger-dir", str(tmp_path / "empty"))
    assert code == 2
    assert "no fleet-triage entries" in text
    # ... and the message is a single line, not an empty table.
    assert len(text.strip().splitlines()) == 1
