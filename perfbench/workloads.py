"""The benchmark's three workloads: which CLI commands a run sends, and
how each command's output is checked.

A workload is a pure function of ``(seed, seconds)``: the seed picks the
inputs and their order, ``--seconds`` sizes the fixed batch through the
per-workload rates below (calibrated once, on a 2-vCPU x86-64 host), so
two commits measured with the same arguments execute the same commands.
Nothing here reads the clock.
"""

import hashlib
import json
import os
import random
import re

#: Failure and success runs per command on the ``baselines`` workload.
#: CBI/CCI sample sparsely, so at this size most rankings are still
#: empty; the workload measures the observer-driven run loop, and the
#: ranked rows (empty or not) are pinned by digest.
BASELINE_RUNS = 12

#: Failure reports per ``triage`` command.
TRIAGE_REPORTS = 500

#: Synthesized bugs added to the 31 corpus bugs per measured second.
DIAGNOSE_SYNTH_PER_SECOND = 6.5

#: Seconds one pass over the 26 baseline commands takes at
#: ``BASELINE_RUNS`` (the batch is a whole number of passes).
BASELINES_PASS_SECONDS = 7.0

#: Seconds one ``triage`` command takes.
TRIAGE_COMMAND_SECONDS = 3.3

#: Entries in the pre-grown ``diagnose`` ledger template.
LEDGER_TEMPLATE_ENTRIES = 1000

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


class Command:
    """One CLI invocation of a batch and the check its output must pass."""

    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check


def rows_digest(rows):
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def diagnosis_report(text):
    """The JSON report ``repro diagnose --json`` prints after the table."""
    start = text.find("\n{")
    if start < 0:
        raise ValueError("no JSON report in the output")
    return json.JSONDecoder().raw_decode(text, start + 1)[0]


def _rank(rows, lines, kind, tags=None):
    """Dense rank of the best row on *lines* (Table 6/7 semantics)."""
    wanted = set(lines)
    for row in rows:
        if row["kind"] != kind or row["line"] not in wanted:
            continue
        if tags is not None and row["detail"] not in tags:
            continue
        return row["rank"]
    return None


def _cell(root, related):
    if root is not None:
        return "X %d" % root
    if related is not None:
        return "X %d*" % related
    return "-"


def load_digests():
    try:
        with open(DIGESTS_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

def _corpus_check(name):
    from repro.bugs.registry import get_bug
    from repro.experiments.expected import TABLE6_CELLS, TABLE7_CELLS

    bug = get_bug(name)

    def check(text):
        rows = diagnosis_report(text)["ranked"]
        if bug.category == "concurrency":
            tags = set(bug.fpe_state_tags) if bug.fpe_state_tags else None
            got = _rank(rows, bug.root_cause_lines, "coherence", tags)
            want = TABLE7_CELLS[bug.paper_name][2]
        else:
            related = _rank(rows, bug.related_lines, "branch") \
                if bug.related_lines else None
            got = _cell(_rank(rows, bug.root_cause_lines, "branch"),
                        related)
            want = TABLE6_CELLS[bug.paper_name][2]
        if got != want:
            return "true-cause rank %s, pinned cell %s" % (got, want)
        return None

    return check


def _digest_check(key, digests, runs, ranked=False):
    """Check a report's run counts, and its ranked rows against the digest
    recorded for *key*, if any; *ranked* also requires a non-empty
    ranking."""
    def check(text):
        report = diagnosis_report(text)
        used = report["runs_used"]
        if (used["failures"], used["successes"]) != (runs, runs):
            return "runs used %s, want %d+%d" % (used, runs, runs)
        if ranked and not report["ranked"]:
            return "empty ranking"
        want = digests.get(key)
        if want is not None and rows_digest(report["ranked"]) != want:
            return "ranked rows differ from the recorded digest"
        return None

    return check


def synth_count(seconds):
    return max(8, int(round(seconds * DIAGNOSE_SYNTH_PER_SECOND)))


def diagnose_commands(seed, seconds, workdir):
    from repro.bugs import synth
    from repro.bugs.registry import bug_names

    digests = load_digests().get("diagnose-synth", {})
    ledger = os.path.join(workdir, "ledger")
    corpus = sorted(bug_names())
    synthesized = synth.population_names(synth_count(seconds), seed=seed)
    names = corpus + list(synthesized)
    random.Random("diagnose:%d" % seed).shuffle(names)
    commands = []
    for name in names:
        check = _corpus_check(name) if name in corpus \
            else _digest_check(name, digests, 10, ranked=True)
        commands.append(Command(
            name, ["diagnose", name, "--json", "--ledger-dir", ledger],
            check))
    return commands


def diagnose_warmup(workdir):
    return Command("warm-up", [
        "diagnose", "sort", "--json",
        "--ledger-dir", os.path.join(workdir, "warm-up-ledger")],
        _corpus_check("sort"))


def build_ledger_template(directory, seed):
    """Grow a ledger of ``LEDGER_TEMPLATE_ENTRIES`` diagnosis entries
    through the public ``Ledger.append``.

    The entries are drawn from ``random.Random(seed)`` and stamped with a
    fixed ``created_at``, so the files are a pure function of the seed.
    """
    import datetime
    import types

    from repro.bugs.registry import bug_names
    from repro.obs import ledger as ledger_module

    fixed = datetime.datetime(2014, 3, 1, tzinfo=datetime.timezone.utc)

    class _FixedClock(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return fixed

    rng = random.Random("ledger-template:%d" % seed)
    names = sorted(bug_names())
    real_datetime = ledger_module.datetime
    ledger_module.datetime = types.SimpleNamespace(
        datetime=_FixedClock, timezone=datetime.timezone)
    try:
        ledger = ledger_module.Ledger(directory)
        for _ in range(LEDGER_TEMPLATE_ENTRIES):
            name = rng.choice(names)
            rank = rng.choice((1, 1, 1, 2, 3, None))
            ledger.append(
                kind="diagnosis",
                tool=rng.choice(("lbra", "lcra", "cbi", "cci")),
                workload=name,
                seed=0,
                params={"scheme": "reactive", "toggling": True,
                        "n_failures": 10, "n_successes": 10},
                quality={"root_cause_rank": rank, "related_rank": None,
                         "n_ranked": rng.randrange(5, 80),
                         "best_event": "%s:%d=T" % (
                             name, rng.randrange(1, 400)),
                         "best_score": round(rng.random(), 6)},
                runs={"failures": 10, "successes": 10},
                provenance_digest="%064x" % rng.getrandbits(256),
                backend="threaded",
                timings={"wall_seconds": round(rng.uniform(0.02, 1.5), 6)},
            )
    finally:
        ledger_module.datetime = real_datetime


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

def baseline_targets():
    """(tool, bug) pairs of one pass: CBI on the C-language sequential
    bugs (CBI cannot instrument C++), CCI on the concurrency bugs."""
    from repro.bugs.registry import concurrency_bugs, sequential_bugs

    pairs = [("cbi", bug.name) for bug in sequential_bugs()
             if bug.language != "cpp"]
    pairs += [("cci", bug.name) for bug in concurrency_bugs()]
    return pairs


def baseline_argv(tool, name):
    return ["diagnose", name, "--tool", tool, "--runs", str(BASELINE_RUNS),
            "--json"]


def baselines_commands(seed, seconds, workdir):
    digests = load_digests().get("baselines", {})
    ledger = os.path.join(workdir, "ledger")
    passes = max(1, int(round(seconds / BASELINES_PASS_SECONDS)))
    rng = random.Random("baselines:%d" % seed)
    commands = []
    for _ in range(passes):
        pairs = baseline_targets()
        rng.shuffle(pairs)
        for tool, name in pairs:
            key = "%s:%s" % (tool, name)
            commands.append(Command(
                key, baseline_argv(tool, name) + ["--ledger-dir", ledger],
                _digest_check(key, digests, BASELINE_RUNS)))
    return commands


def baselines_warmup(workdir):
    return Command(
        "warm-up",
        baseline_argv("cbi", "mv") + [
            "--ledger-dir", os.path.join(workdir, "warm-up-ledger")],
        _digest_check("cbi:mv", load_digests().get("baselines", {}),
                      BASELINE_RUNS))


# ----------------------------------------------------------------------
# triage
# ----------------------------------------------------------------------

_CLUSTER_NOTE = re.compile(r"(\d+) reports clustered into (\d+) signatures")
_RANK1_NOTE = re.compile(r"ranked #1 for (\d+)/(\d+) labeled clusters")

#: docs/fleet.md: one signature per corpus bug, 23 of them rank-1.
TRIAGE_RANK1 = 23


def _triage_check(reports, snapshot, expect_apps, rank1):
    def check(text):
        clusters = _CLUSTER_NOTE.search(text)
        ranked = _RANK1_NOTE.search(text)
        if clusters is None or ranked is None:
            return "triage notes missing"
        if int(clusters.group(1)) != reports:
            return "%s reports clustered, want %d" % (clusters.group(1),
                                                      reports)
        apps = [line.split()[1] for line in text.splitlines()
                if re.match(r"^[0-9a-f]{12}  ", line)]
        if sorted(apps) != sorted(expect_apps):
            return "signatures per application %s" % sorted(apps)
        if rank1 is not None and \
                (int(ranked.group(1)), int(ranked.group(2))) != (rank1,
                                                                 rank1):
            return "rank-1 clusters %s/%s, want %d/%d" % (
                ranked.group(1), ranked.group(2), rank1, rank1)
        try:
            with open(snapshot) as handle:
                if not json.load(handle).get("complete"):
                    return "telemetry snapshot not complete"
        except (OSError, ValueError) as exc:
            return "telemetry snapshot unreadable: %s" % exc
        return None

    return check


def _triage_command(label, directory, reports, stream_seed, bugs,
                    rank1):
    from repro.bugs.registry import bug_names

    snapshot = os.path.join(directory, "snapshot.json")
    argv = ["triage", "--reports", str(reports), "--seed", str(stream_seed),
            "--cache", "--cache-dir", os.path.join(directory, "cache"),
            "--snapshot-out", snapshot,
            "--ledger-dir", os.path.join(directory, "ledger")]
    if bugs:
        argv += ["--bugs"] + list(bugs)
    return Command(label, argv,
                   _triage_check(reports, snapshot,
                                 list(bugs or sorted(bug_names())), rank1))


def triage_commands(seed, seconds, workdir):
    count = max(1, int(round(seconds / TRIAGE_COMMAND_SECONDS)))
    commands = []
    for index in range(count):
        stream_seed = seed * 1000 + index
        commands.append(_triage_command(
            "stream-%d" % stream_seed,
            os.path.join(workdir, "triage-%d" % index),
            TRIAGE_REPORTS, stream_seed, None, TRIAGE_RANK1))
    return commands


def triage_warmup(workdir):
    return _triage_command("warm-up", os.path.join(workdir, "warm-up"),
                           4, 0, ("sort", "tac"), None)


#: name -> (batch factory, warm-up factory, needs the ledger template)
WORKLOADS = {
    "diagnose": (diagnose_commands, diagnose_warmup, True),
    "baselines": (baselines_commands, baselines_warmup, False),
    "triage": (triage_commands, triage_warmup, False),
}
