#!/usr/bin/env python
"""Fail the build when the docs drift from the code.

Markdown rots in five predictable ways; this checker catches each:

* a ``--flag`` that the ``repro`` CLI no longer accepts (or never did);
* a dotted ``repro.*`` module/attribute path that no longer imports;
* a backticked repo file path (``src/...``, ``docs/...``, ...) that no
  longer exists;
* a backticked ``Class.attr`` or ``Class.attr()``, where ``Class`` is a
  class defined in a ``repro`` module, naming an attribute or dataclass
  field the class no longer has.  Names that are not ``repro`` classes
  (``DESIGN.md``) are skipped;
* a fault-site table in ``docs/resilience.md`` whose site column is not
  exactly ``repro.runtime.resilience.FAULT_SITES``, so a deleted site
  cannot linger in the docs and a new one cannot go undocumented.

Checked files: ``README.md``, ``DESIGN.md``, and ``docs/*.md`` — the
documents that describe the *current* code.  ``ROADMAP.md`` (future
work) and ``CHANGES.md`` (history) legitimately reference things that
do not exist yet / any more, so they are exempt.

Usage: ``PYTHONPATH=src python tools/check_docs.py`` (exits non-zero
listing every stale reference).
"""

import dataclasses
import importlib
import pathlib
import pkgutil
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Flags belonging to other tools that the docs mention (pytest, pip).
FOREIGN_FLAGS = {
    "--benchmark-only",
    "--benchmark-autosave",
}

#: Pages that must exist: ``docs/*.md`` is globbed, so a deleted or
#: renamed page would otherwise silently drop out of the check.
REQUIRED_DOCS = (
    "docs/architecture.md",
    "docs/experiments.md",
    "docs/fleet.md",
    "docs/ledger.md",
    "docs/observability.md",
    "docs/performance.md",
    "docs/resilience.md",
    "docs/synth.md",
)

#: A doc path reference must start with one of these repo directories.
PATH_ROOTS = ("src/", "docs/", "tests/", "benchmarks/", "tools/",
              ".github/")

FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_RE = re.compile(r"`([^`\s]+/[^`\s]*)`")
MEMBER_RE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")


def doc_files():
    files = [REPO / "README.md", REPO / "DESIGN.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def cli_flags():
    """Every option string any repro (sub)parser accepts."""
    from repro.cli import build_parser

    flags = set()
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict):
                pending.extend(
                    child for child in choices.values()
                    if hasattr(child, "_actions"))
    return flags


def repro_classes():
    """Class name -> the classes of that name defined in ``repro``."""
    import repro

    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and value.__module__ == info.name:
                classes.setdefault(value.__name__, []).append(value)
    return classes


def has_member(cls, name):
    """Does *cls* have an attribute or dataclass field called *name*?"""
    return hasattr(cls, name) or (
        dataclasses.is_dataclass(cls)
        and name in {field.name for field in dataclasses.fields(cls)})


def check_module(dotted):
    """Is *dotted* an importable module, or an attribute on one?"""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def fault_table_errors(page="docs/resilience.md"):
    """Sites the fault table of *page* adds to or omits from the code's."""
    from repro.runtime.resilience import FAULT_SITES

    if not (REPO / page).exists():
        return []                        # reported as a missing page
    documented = []
    in_table = False
    for line in (REPO / page).read_text().splitlines():
        if line.startswith("| site |"):
            in_table = True
        elif in_table and line.startswith("|"):
            cell = line.split("|")[1].strip()
            if not cell.startswith("-"):
                documented.append(cell.strip("`"))
        elif in_table:
            break
    if not documented:
        return ["%s: no fault-site table" % page]
    errors = ["%s: fault table lists unknown site %s" % (page, site)
              for site in sorted(set(documented) - set(FAULT_SITES))]
    errors += ["%s: fault table omits site %s" % (page, site)
               for site in sorted(set(FAULT_SITES) - set(documented))]
    return errors


def main():
    known_flags = cli_flags() | FOREIGN_FLAGS
    classes = repro_classes()
    errors = ["missing required page %s" % page
              for page in REQUIRED_DOCS if not (REPO / page).exists()]
    errors += fault_table_errors()
    for path in doc_files():
        rel = path.relative_to(REPO)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for flag in FLAG_RE.findall(line):
                if flag not in known_flags:
                    errors.append("%s:%d: unknown CLI flag %s"
                                  % (rel, lineno, flag))
            for dotted in MODULE_RE.findall(line):
                if not check_module(dotted):
                    errors.append("%s:%d: stale module path %s"
                                  % (rel, lineno, dotted))
            for ref in PATH_RE.findall(line):
                ref = ref.rstrip("/").split("#")[0].split("::")[0]
                if not ref.startswith(PATH_ROOTS) or "*" in ref \
                        or "<" in ref:
                    continue
                if not (REPO / ref).exists():
                    errors.append("%s:%d: missing file %s"
                                  % (rel, lineno, ref))
            for name, member in MEMBER_RE.findall(line):
                owners = classes.get(name)
                if owners and not any(has_member(cls, member)
                                      for cls in owners):
                    errors.append("%s:%d: stale reference %s.%s"
                                  % (rel, lineno, name, member))
    if errors:
        print("doc check FAILED (%d stale reference%s):"
              % (len(errors), "" if len(errors) == 1 else "s"))
        for error in errors:
            print("  " + error)
        return 1
    print("doc check OK: %d files, no stale flags/modules/paths/members"
          "/fault sites" % len(doc_files()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
