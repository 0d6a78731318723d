"""Paper-conformance expectations for the experiment drivers.

``repro obs conformance`` re-runs an experiment driver and checks its
output against the values recorded here — the reproduction's pinned
Table 5/6/7 cells, which by the executor determinism contract are
bit-identical on every machine, VM backend and cache state.  Only the
*deterministic* columns are pinned: Table 6's CBI column depends on the
campaign size and its overhead columns on run timing, so the checks
cover the LBRLOG/LBRA/LCRA cells the paper's capability claims rest on.

Each expectation also keeps the paper's global envelope (e.g. Table 5's
0.74–0.98 useful-branch range) so a failed check distinguishes "the
reproduction drifted" from "the reproduction left the paper's reported
range".
"""

#: Table 5 — pinned useful-branch ratio per application (2 decimals,
#: exactly as the driver renders them) and the paper's reported range.
TABLE5_RATIOS = {
    "Apache": "0.90", "Cppcheck": "0.88", "Lighttpd": "0.93",
    "PBZIP": "0.93", "Squid": "0.93", "cp": "0.91", "ln": "0.93",
    "mv": "0.93", "paste": "0.93", "rm": "0.92", "sort": "0.74",
    "tac": "0.93", "tar": "0.91",
}
TABLE5_PAPER_RANGE = (0.74, 0.98)

#: Table 6 — pinned deterministic cells per sequential failure:
#: (LBRLOG with toggling, LBRLOG without toggling, LBRA).  The CBI,
#: patch-distance, and overhead columns are campaign-size and timing
#: dependent and are not pinned.
TABLE6_CELLS = {
    "Apache1":   ("X 3",   "X 3",   "X 1"),
    "Apache2":   ("X 4*",  "X 4*",  "X 2*"),
    "Apache3":   ("X 2",   "X 2",   "X 1"),
    "cp":        ("X 2",   "-",     "X 1"),
    "Cppcheck1": ("X 6*",  "X 6*",  "X 1*"),
    "Cppcheck2": ("X 3",   "X 3",   "X 1"),
    "Cppcheck3": ("X 6",   "X 6",   "X 1"),
    "Lighttpd":  ("X 4",   "X 4",   "X 1"),
    "ln":        ("X 10*", "-",     "X 1*"),
    "mv":        ("X 13",  "X 13",  "X 1"),
    "paste":     ("X 3",   "-",     "X 1"),
    "PBZIP1":    ("X 4",   "-",     "X 1"),
    "PBZIP2":    ("X 1",   "X 1",   "X 1"),
    "rm":        ("X 4",   "X 4",   "X 1"),
    "sort":      ("X 4",   "X 6",   "X 1"),
    "Squid1":    ("X 3",   "X 3",   "X 1"),
    "Squid2":    ("X 10",  "X 10",  "X 1"),
    "tac":       ("X 1*",  "X 1*",  "X 1*"),
    "tar1":      ("X 5",   "X 5",   "X 1"),
    "tar2":      ("X 2",   "-",     "X 1"),
}

#: Table 7 — pinned (Conf1, Conf2, LCRA) positions per concurrency
#: failure; ``None`` = not found, matching the paper's ``-`` cells.
TABLE7_CELLS = {
    "Apache4":     (2, 3, 1),
    "Apache5":     (None, None, None),
    "Cherokee":    (None, None, None),
    "FFT":         (2, 3, 1),
    "LU":          (2, 3, 1),
    "Mozilla-JS1": (2, 3, 1),
    "Mozilla-JS2": (None, None, None),
    "Mozilla-JS3": (2, 3, 1),
    "MySQL1":      (None, None, None),
    "MySQL2":      (2, 3, 1),
    "PBZIP3":      (2, 3, 1),
}
#: The paper diagnoses 7 of 11 concurrency failures with LCRA.
TABLE7_PAPER_DIAGNOSED = 7


def check_table5(result):
    """Mismatch strings for a Table 5 result (empty = conformant)."""
    problems = []
    seen = set()
    low, high = TABLE5_PAPER_RANGE
    for row in result.rows:
        application, measured = row[0], row[1]
        expected = TABLE5_RATIOS.get(application)
        if expected is None:
            problems.append("table5: unexpected application %r"
                            % application)
            continue
        seen.add(application)
        if measured != expected:
            problems.append(
                "table5 %s: useful-branch ratio %s, expected %s"
                % (application, measured, expected)
            )
        if not low <= float(measured) <= high:
            problems.append(
                "table5 %s: ratio %s outside the paper's %.2f-%.2f range"
                % (application, measured, low, high)
            )
    for application in sorted(set(TABLE5_RATIOS) - seen):
        problems.append("table5: application %r missing from the result"
                        % application)
    return problems


def _check_cells(table, raw_rows, expected, fields, render=str):
    problems = []
    seen = set()
    for data in raw_rows:
        name = data["name"]
        cells = expected.get(name)
        if cells is None:
            problems.append("%s: unexpected failure %r" % (table, name))
            continue
        seen.add(name)
        for field_name, want in zip(fields, cells):
            got = data[field_name]
            if got != want:
                problems.append(
                    "%s %s: %s cell %s, expected %s"
                    % (table, name, field_name, render(got), render(want))
                )
    if not seen:
        problems.append("%s: result contains no known failures" % table)
    return problems, seen


def check_table6(result):
    """Mismatch strings for a Table 6 result (empty = conformant).

    Checks only the failures present in ``result.raw``, so drivers run
    on a bug subset (``table6.run(bugs=...)``) check cleanly; the
    pinned cells do not depend on ``cbi_runs`` or ``overhead_runs``.
    """
    problems, _seen = _check_cells(
        "table6", result.raw, TABLE6_CELLS,
        ("lbrlog_tog", "lbrlog_notog", "lbra"),
    )
    return problems


def check_table7(result):
    """Mismatch strings for a Table 7 result (empty = conformant)."""
    def render(value):
        return "-" if value is None else "X %d" % value

    problems, seen = _check_cells(
        "table7", result.raw, TABLE7_CELLS,
        ("conf1", "conf2", "lcra"), render=render,
    )
    if seen == set(TABLE7_CELLS):
        diagnosed = sum(1 for r in result.raw if r["lcra"] is not None)
        if diagnosed != TABLE7_PAPER_DIAGNOSED:
            problems.append(
                "table7: LCRA diagnosed %d of %d failures, paper "
                "reports %d" % (diagnosed, len(result.raw),
                                TABLE7_PAPER_DIAGNOSED)
            )
    return problems


def _run_table5(executor=None):
    from repro.experiments import table5
    return table5.run(executor=executor)


def _run_table6(executor=None):
    # The pinned cells are independent of the CBI campaign size and the
    # overhead run count, so conformance uses small values of both.
    from repro.experiments import table6
    return table6.run(cbi_runs=30, overhead_runs=1, executor=executor)


def _run_table7(executor=None):
    from repro.experiments import table7
    return table7.run(executor=executor)


#: name -> (runner, checker, note) for ``repro obs conformance``.
CONFORMANCE_DRIVERS = {
    "table5": (_run_table5, check_table5,
               "useful-branch ratios, all 13 applications"),
    "table6": (_run_table6, check_table6,
               "LBRLOG/LBRA cells, all 20 sequential failures "
               "(CBI/overhead columns not pinned)"),
    "table7": (_run_table7, check_table7,
               "Conf1/Conf2/LCRA cells, all 11 concurrency failures"),
}


def run_conformance(names, executor=None):
    """Run and check the named drivers; returns ``(text, exit_code)``."""
    lines = []
    failed = False
    for name in names:
        try:
            runner, checker, note = CONFORMANCE_DRIVERS[name]
        except KeyError:
            raise ValueError(
                "unknown conformance driver %r; available: %s"
                % (name, ", ".join(sorted(CONFORMANCE_DRIVERS)))
            ) from None
        result = runner(executor=executor)
        problems = checker(result)
        if problems:
            failed = True
            lines.append("FAIL %s (%s):" % (name, note))
            lines.extend("  " + problem for problem in problems)
        else:
            lines.append("ok   %s (%s)" % (name, note))
    lines.append("conformance: %s"
                 % ("FAILED" if failed else
                    "all checked values match the reproduction's "
                    "pinned paper tables"))
    return "\n".join(lines), (1 if failed else 0)


__all__ = [
    "CONFORMANCE_DRIVERS",
    "TABLE5_PAPER_RANGE",
    "TABLE5_RATIOS",
    "TABLE6_CELLS",
    "TABLE7_CELLS",
    "TABLE7_PAPER_DIAGNOSED",
    "check_table5",
    "check_table6",
    "check_table7",
    "run_conformance",
]
