"""Resume-equivalence chaos tests: kill -9 mid-campaign, resume, diff.

The durable-campaign contract under test, end to end through the real
CLI in subprocesses: a run SIGKILLed (``!kill`` fault modifier) at any
registered fault site, then resumed with ``repro resume``, produces
**byte-identical** stdout and identical ledger entry ids to a run that
was never interrupted — at any ``--jobs`` value and on either VM
backend.  SIGTERM exits with the distinct resumable code and prints the
resume hint.
"""

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.ledger import Ledger
from repro.runtime import resilience
from repro.runtime.checkpoint import RESUMABLE_EXIT_CODE
from repro.runtime.resilience import CRASH_EXIT_CODE

from tests.runtime.test_cli import run_cli

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


class _Result:
    def __init__(self, returncode, stdout, stderr):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def _repro(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(resilience.FAULTS_ENV, None)
    env.pop(resilience.FAULTS_STATE_ENV, None)
    # Output goes to files, not pipes: a chaos run dies via os._exit
    # while its pool workers still hold the inherited stdout/stderr
    # descriptors, and reading a pipe would block until they notice.
    out_path = os.path.join(cwd, ".test-stdout")
    err_path = os.path.join(cwd, ".test-stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + list(args),
            cwd=cwd, env=env, stdout=out, stderr=err, timeout=timeout,
        )
    with open(out_path) as handle:
        stdout = handle.read()
    with open(err_path) as handle:
        stderr = handle.read()
    return _Result(proc.returncode, stdout, stderr)


def _stable_stdout(text):
    """Stdout minus wall-clock noise: the executor statistics block."""
    lines = []
    for line in text.splitlines(keepends=True):
        if "Campaign executor statistics" in line:
            break
        lines.append(line)
    return "".join(lines)


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
# Jobs and backend matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["reference", "threaded"])
@pytest.mark.parametrize("jobs", ["1", "4"])
def test_kill_resume_across_jobs_and_backends(tmp_path, jobs, backend):
    # Killed at the 13th journal append: the failing phase's 10 records
    # are on disk as two group commits, so the resume replays them.
    argv = ["diagnose", "sort", "--runs", "10",
            "--jobs", jobs, "--backend", backend]
    clean, resumed, clean_ledger, chaos_ledger = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:12", journaled=True)
    # --jobs stdout includes wall-clock executor statistics; everything
    # above that block is the diagnosis itself and must match exactly.
    assert _stable_stdout(resumed.stdout) == _stable_stdout(clean.stdout)
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_baseline_kill_resume_replays_the_journal(tmp_path, jobs):
    # A CBI campaign journals like LBRA's.  The kill lands at the 21st
    # append, past two group commits of CheckpointJournal.FLUSH_EVERY
    # (8) records each.
    argv = ["diagnose", "sort", "--tool", "cbi", "--runs", "40",
            "--jobs", jobs]
    clean, resumed, clean_ledger, chaos_ledger = _kill_resume_roundtrip(
        tmp_path, argv, "checkpoint-write-torn!kill:1:20", journaled=True)
    assert _stable_stdout(resumed.stdout) == _stable_stdout(clean.stdout)
    assert _entry_ids(chaos_ledger) == _entry_ids(clean_ledger)


def _processes_mentioning(text):
    """PIDs of live processes whose command line contains *text*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "cmdline"), "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_killed_command_leaves_no_pool_workers(tmp_path):
    """Pool workers of a hard-killed command exit instead of idling."""
    ckpt = str(tmp_path / "ck")
    chaos = _repro(
        ["diagnose", "sort", "--runs", "3", "--jobs", "2", "--no-ledger",
         "--checkpoint", "--checkpoint-dir", ckpt,
         "--inject-faults", "checkpoint-write-torn!kill:1:2"],
        cwd=str(tmp_path))
    assert chaos.returncode == CRASH_EXIT_CODE, chaos.stderr
    deadline = time.monotonic() + 5.0
    while _processes_mentioning(ckpt) and time.monotonic() < deadline:
        time.sleep(0.1)
    leftover = _processes_mentioning(ckpt)
    for pid in leftover:          # never leave them behind, even on failure
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert leftover == []


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
