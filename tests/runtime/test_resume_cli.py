"""Resume-equivalence chaos tests: kill -9 mid-campaign, resume, diff.

The durable-campaign contract under test, end to end through the real
CLI in subprocesses: a run SIGKILLed (``!kill`` fault modifier) at any
registered fault site, then resumed with ``repro resume``, produces
**byte-identical** stdout and identical ledger entry ids to a run that
was never interrupted — on either VM backend, for LBRA and CBI
campaigns, and on synthesized bugs.  SIGTERM exits with the distinct
resumable code and prints the resume hint.
"""

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.bugs import synth
from repro.obs.ledger import Ledger
from repro.runtime import resilience
from repro.runtime.checkpoint import RESUMABLE_EXIT_CODE
from repro.runtime.resilience import CRASH_EXIT_CODE

from tests.runtime.test_cli import run_cli

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def _repro(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(resilience.FAULTS_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(args),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _entry_ids(ledger_dir):
    return sorted({entry["entry_id"]
                   for entry in Ledger(str(ledger_dir)).entries()})


def _kill_resume_roundtrip(tmp_path, argv, site_spec, journaled=False):
    """Run *argv* clean, then chaos-killed + resumed; return both sides.

    Returns ``None`` when the fault site was never reached (the chaos
    run finished normally) — the caller skips.  With *journaled* the
    chaos run must die, and must leave a checkpoint journal on disk, so
    the resume replays journaled runs instead of re-executing them all.
    """
    clean_ledger = tmp_path / "ledger-clean"
    chaos_ledger = tmp_path / "ledger-chaos"
    ckpt = tmp_path / "ck"

    clean = _repro(argv + ["--ledger-dir", str(clean_ledger)],
                   cwd=str(tmp_path))
    assert clean.returncode == 0, clean.stderr

    chaos = _repro(
        argv + ["--ledger-dir", str(chaos_ledger),
                "--checkpoint", "--checkpoint-dir", str(ckpt),
                "--inject-faults", site_spec],
        cwd=str(tmp_path))
    if chaos.returncode == 0 and not journaled:
        return None          # site not on this command's path
    assert chaos.returncode == CRASH_EXIT_CODE, \
        "expected kill at %s, got rc=%d\n%s" % (
            site_spec, chaos.returncode, chaos.stderr)
    if journaled:
        assert glob.glob(str(ckpt / "*" / "*.jsonl")), \
            "no checkpoint journal on disk after the kill"

    # The session manifest stored --ledger-dir (it is not a volatile
    # flag), so the re-dispatched command writes to the chaos ledger.
    resumed = _repro(
        ["resume", "--last", "--checkpoint-dir", str(ckpt)],
        cwd=str(tmp_path))
    assert resumed.returncode == 0, resumed.stderr
    return clean, resumed, clean_ledger, chaos_ledger


# ----------------------------------------------------------------------
# Every registered fault site, sequential path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("site", sorted(resilience.FAULT_SITES))
def test_kill_at_every_site_then_resume_is_byte_identical(tmp_path, site):
    argv = ["diagnose", "sort", "--runs", "3"]
    result = _kill_resume_roundtrip(tmp_path, argv, site + "!kill:1")
    if result is None:
        pytest.skip("site %s not reached by sequential diagnose" % site)
    clean, resumed, clean_ledger, chaos_ledger = result
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


# ----------------------------------------------------------------------
# Backends, tools and synthesized bugs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["reference", "threaded"])
def test_kill_resume_across_backends(tmp_path, backend):
    # Killed at the 13th journal append: the failing phase's 10 records
    # are on disk as two group commits, so the resume replays them.
    argv = ["diagnose", "sort", "--runs", "10", "--backend", backend]
    clean, resumed, clean_ledger, chaos_ledger = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:12", journaled=True)
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


def test_baseline_kill_resume_replays_the_journal(tmp_path):
    # A CBI campaign journals like LBRA's.  The kill lands at the 21st
    # append, past two group commits of CheckpointJournal.FLUSH_EVERY
    # (8) records each.
    argv = ["diagnose", "sort", "--tool", "cbi", "--runs", "40"]
    clean, resumed, clean_ledger, chaos_ledger = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:20", journaled=True)
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


def _first_synth_names():
    """The first sequential and the first concurrency name of the seeded
    population; CI runs all eight."""
    names = synth.population_names(8, seed=0)
    return [next(name for name in names if name.startswith(prefix))
            for prefix in ("synth-seq-", "synth-conc-")]


@pytest.mark.parametrize("name", _first_synth_names())
def test_synth_kill_resume_is_byte_identical(tmp_path, name):
    """Resumed ≡ uninterrupted on a generated bug: LBRA on a sequential
    one, LCRA on a concurrency one, killed at the 13th journal
    append."""
    argv = ["diagnose", name, "--runs", "10"]
    clean, resumed, clean_ledger, chaos_ledger = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:12", journaled=True)
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


# ----------------------------------------------------------------------
# Experiment driver
# ----------------------------------------------------------------------

def test_experiment_kill_resume_is_byte_identical(tmp_path):
    argv = ["experiment", "table5"]
    result = _kill_resume_roundtrip(tmp_path, argv,
                                    "ledger-write-torn!kill:1")
    if result is None:
        pytest.skip("ledger-write-torn not reached by table5")
    clean, resumed, clean_ledger, chaos_ledger = result
    assert resumed.stdout == clean.stdout
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


# ----------------------------------------------------------------------
# Signals and the resume command surface
# ----------------------------------------------------------------------

def test_sigterm_exits_resumable_with_hint(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "diagnose", "sort",
         "--runs", "500", "--no-ledger",
         "--checkpoint", "--checkpoint-dir", str(tmp_path / "ck")],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # Signal once the campaign is journaling, not after a fixed sleep:
    # on a fast host the whole command can finish inside any fixed
    # delay, and a signal landing after the campaign hits no handler.
    journals = str(tmp_path / "ck" / "*" / "*.jsonl")
    deadline = time.monotonic() + 30
    while proc.poll() is None and not glob.glob(journals) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)
    _out, err = proc.communicate(timeout=60)
    if proc.returncode == 0:
        pytest.skip("campaign finished before the signal landed")
    assert proc.returncode == RESUMABLE_EXIT_CODE, err
    assert "resume with" in err
    assert "repro resume" in err


@pytest.mark.parametrize("command", ["triage", "obs-conformance"])
def test_sigterm_unwinds_every_campaign_command(tmp_path, command):
    """Commands without checkpoint flags convert SIGTERM too: they
    unwind and exit 130."""
    if command == "triage":
        # The first snapshot lands before the first cluster campaign.
        artifact = tmp_path / "snapshot.json"
        argv = ["triage", "--reports", "500", "--cache",
                "--snapshot-out", str(artifact)]
    else:
        # The ledger exists once the first diagnosis is recorded.
        artifact = tmp_path / "ledger" / "ledger.jsonl"
        argv = ["obs", "conformance", "table6"]
    argv += ["--ledger-dir", str(tmp_path / "ledger"),
             "--inject-faults", "cache-read-error:1"]
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(resilience.FAULTS_ENV, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv, cwd=str(tmp_path),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while proc.poll() is None and not artifact.exists() \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)
    _out, err = proc.communicate(timeout=60)
    if proc.returncode == 0:
        pytest.skip("%s finished before the signal landed" % command)
    assert proc.returncode == 130, err
    assert "repro: SIGTERM" in err


def test_resume_lists_and_rejects_unknown_sessions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli("resume", "--list",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 0
    assert "no resumable sessions" in out

    code, out = run_cli("resume",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 1

    code, out = run_cli("resume", "deadbeef",
                        "--checkpoint-dir", str(tmp_path / "ck"))
    assert code == 1
    assert "no checkpoint session matching" in out


def test_completed_checkpoint_session_is_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "ck"
    code, _out = run_cli("diagnose", "sort", "--runs", "2", "--no-ledger",
                         "--checkpoint", "--checkpoint-dir", str(ckpt))
    assert code == 0
    # The invocation completed, so its journals are spent and removed.
    code, out = run_cli("resume", "--list", "--checkpoint-dir", str(ckpt))
    assert code == 0
    assert "no resumable sessions" in out
