"""Record the ranked-row digests the benchmark checks outputs against.

    PYTHONHASHSEED=0 python3 perfbench/record_digests.py

writes ``perfbench/digests.json``: one digest per baseline command
(``cbi:<bug>``/``cci:<bug>``, every seed runs the same 26) and one per
synthesized bug of the default seed's ``diagnose`` population, sized
for the largest ``--seconds`` the benchmark accepts.  Re-record only
when a change is meant to alter diagnosis results, and say so.
"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

#: the default seed and the largest run length digests are kept for
SEED = 0
MAX_SECONDS = 60


def _digest(cli, argv):
    out = io.StringIO()
    code = cli.main(argv + ["--no-ledger"], out=out)
    if code != 0:
        raise SystemExit("%s exited with %d" % (" ".join(argv), code))
    report = workloads.diagnosis_report(out.getvalue())
    return workloads.rows_digest(report["ranked"])


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("run with PYTHONHASHSEED=0, as the benchmark does")
    import repro.cli as cli
    from repro.bugs import synth

    digests = {"baselines": {}, "diagnose-synth": {}}
    for tool, name in workloads.baseline_targets():
        digests["baselines"]["%s:%s" % (tool, name)] = _digest(
            cli, workloads.baseline_argv(tool, name))
    names = synth.population_names(workloads.synth_count(MAX_SECONDS),
                                   seed=SEED)
    for name in names:
        digests["diagnose-synth"][name] = _digest(
            cli, ["diagnose", name, "--json"])
    with open(workloads.DIGESTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d digests written to %s" % (
        sum(len(group) for group in digests.values()),
        workloads.DIGESTS_PATH))


if __name__ == "__main__":
    main()
