"""The log enhancer shares the parsed module and never writes to it.

``enhance_logging`` copies only the nodes along the paths it rewrites
and shares the rest with the module it was given.  One parsed module
feeds every program of a workload's tools (fleet triage hands a tool
the module its reports parsed), so a write into a shared node would
silently change every later program.  These tests build every program
the diagnosis tools build from one parse and check that:

* the module still equals a fresh parse, by ``==`` and by ``repr``;
* each enhanced module equals what the copying transform below (the
  transform as it was before it shared nodes, run on a
  ``copy.deepcopy`` of the module) builds, and so do the compiled
  program's fingerprint and metadata;
* no AST node reachable from the module gains an attribute, so neither
  the transform nor codegen writes onto a node.
"""

import copy
import dataclasses

import pytest

from repro.bugs import synth
from repro.bugs.registry import all_bugs, get_bug
from repro.compiler import compile_module
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.transform import LogEnhancer, ReactiveTarget, enhance_logging
from repro.machine.cpu import MachineConfig
from repro.runtime.executor import fingerprint_program
from repro.runtime.process import execute_plan

POPULATION = sorted(all_bugs(), key=lambda bug: bug.name) + [
    get_bug(name) for name in synth.population_names(8, seed=0)]


class CopyingEnhancer(LogEnhancer):
    """The oracle: the transform that deep-copied the module and then
    rewrote the copy in place."""

    def transform(self, module):
        module = copy.deepcopy(module)
        self._sites = []
        self._temp_counter = 0
        for function in module.functions:
            if function.is_library:
                continue
            function.body = ast.Block(
                statements=self._rewrite_block(function, function.body),
                line=function.body.line,
            )
        if module.has_function("main"):
            main = module.function("main")
            main.body.statements = (
                self._monitoring_prologue(main.line)
                + main.body.statements
            )
        if self.register_segv_handler:
            self._add_segv_handler(module)
        module.metadata["logging_sites"] = list(self._sites)
        module.metadata["log_functions"] = sorted(self.log_functions)
        module.metadata["log_rings"] = self.rings
        return module

    def _rewrite_block(self, function, block):
        rewritten = []
        for statement in block.statements:
            rewritten.extend(self._rewrite_statement(function, statement))
        return rewritten

    def _rewrite_statement(self, function, statement):
        if isinstance(statement, (ast.While, ast.For)):
            statement.body = ast.Block(
                statements=self._rewrite_block(function, statement.body),
                line=statement.body.line,
            )
            return [statement]
        return super()._rewrite_statement(function, statement)

    def _rewrite_if(self, function, statement):
        wants_success = self._wants_log_success_site(function, statement)
        statement.then = ast.Block(
            statements=self._rewrite_block(function, statement.then),
            line=statement.then.line,
        )
        if isinstance(statement.orelse, ast.Block):
            statement.orelse = ast.Block(
                statements=self._rewrite_block(function, statement.orelse),
                line=statement.orelse.line,
            )
        elif isinstance(statement.orelse, ast.If):
            rewritten = self._rewrite_if(function, statement.orelse)
            if len(rewritten) == 1:
                statement.orelse = rewritten[0]
            else:
                statement.orelse = ast.Block(statements=rewritten,
                                             line=statement.orelse.line)
        if not wants_success:
            return [statement]
        self._temp_counter += 1
        temp = "__log_cond_%d" % self._temp_counter
        line = statement.line
        failure_site_id = self._first_failure_site_in(statement)
        site = self._new_site(
            kind="success", function=function.name, line=line,
            paired_failure_site=failure_site_id,
        )
        statement.cond = ast.Name(name=temp, line=line)
        return [
            ast.LocalDecl(name=temp, line=line),
            ast.Assign(target=ast.Name(name=temp, line=line),
                       value=statement.__dict__.pop("_hoisted_cond"),
                       line=line),
            ast.ProfilePoint(site_id=site.site_id, site_kind="success",
                             rings=self.rings, line=line),
            statement,
        ]

    def _wants_log_success_site(self, function, statement):
        if self.success_scheme == "none":
            return False
        arms = [statement.then]
        if isinstance(statement.orelse, ast.Block):
            arms.append(statement.orelse)
        has_direct_log = any(
            self._log_call_in(inner) is not None
            for arm in arms for inner in arm.statements
        )
        if not has_direct_log:
            return False
        if self.success_scheme == "reactive":
            target = self.reactive_target
            if (target.kind != "log" or target.function != function.name
                    or not self._statement_matches_line(statement,
                                                        target.line)):
                return False
        statement.__dict__["_hoisted_cond"] = statement.cond
        return True


def nodes(value):
    """Every AST node reachable from *value*, depth first."""
    if dataclasses.is_dataclass(value):
        yield value
        for field in dataclasses.fields(value):
            yield from nodes(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from nodes(item)


def attributes(module):
    """``(node, attribute names)`` for every node reachable from
    *module*; the nodes are held, so no id is reused."""
    return [(node, sorted(vars(node))) for node in nodes(module)]


def segv_target(workload, program):
    """The reactive target at the statement the first failing run of
    *program* faulted in, or ``None`` if no such run faults."""
    config = MachineConfig(num_cores=workload.num_cores)
    for k in range(20):
        status = execute_plan(program, workload.failing_run_plan(k),
                              config).status
        if workload.is_failure(status):
            break
    else:
        return None
    if status.fault is None:
        return None
    location = program.debug_info.location_at(status.fault.pc)
    if location is None:
        return None
    return ReactiveTarget(kind="segv", function=location.function,
                          line=location.line)


def tool_builds(workload, module):
    """``(label, options)`` of each ``enhance_logging`` call the tools
    make for *workload*, for both rings: LBRLOG/LCRLOG, the LBRA/LCRA
    failure program under the reactive and the proactive scheme, and a
    reactive success program for each failure-logging site and for the
    statement the first failing run faults in."""
    own_ring = "lbr" if workload.category == "sequential" else "lcr"
    failure = enhance_logging(module, log_functions=workload.log_functions,
                              rings=(own_ring,))
    targets = [ReactiveTarget(kind="log", function=site.function,
                              line=site.line)
               for site in failure.metadata["logging_sites"]
               if site.kind == "failure-log"]
    fault = segv_target(workload, compile_module(failure, toggling=True))
    if fault is not None:
        targets.append(fault)
    for ring in ("lbr", "lcr"):
        options = {"log_functions": workload.log_functions,
                   "rings": (ring,)}
        yield "%s log" % ring, options
        yield "%s proactive" % ring, dict(options,
                                          success_scheme="proactive")
        for target in targets:
            yield ("%s reactive %s@%d" % (ring, target.kind, target.line),
                   dict(options, success_scheme="reactive",
                        reactive_target=target))


def tool_programs(workload):
    """``(label, program)`` for every tool program of *workload*, each
    build toggled and untoggled, all from one parse."""
    module = workload.build_module()
    for label, options in tool_builds(workload, module):
        enhanced = enhance_logging(module, **options)
        for toggling in (True, False):
            yield ("%s %s" % (label, "toggled" if toggling else "untoggled"),
                   compile_module(enhanced, toggling=toggling))


def assert_transform_shares_safely(workload):
    """Build every tool program of *workload* from one parse and check
    it against the copying oracle; return how many were checked."""
    module = workload.build_module()
    before = attributes(module)
    checked = 0
    for label, options in tool_builds(workload, module):
        where = "%s %s" % (workload.name, label)
        enhanced = enhance_logging(module, **options)
        oracle = CopyingEnhancer(**options).transform(copy.deepcopy(module))
        assert enhanced == oracle, where
        for toggling in (True, False):
            program = compile_module(enhanced, toggling=toggling)
            expected = compile_module(oracle, toggling=toggling)
            assert fingerprint_program(program) \
                == fingerprint_program(expected), where
            assert program.metadata == expected.metadata, where
            checked += 1
    fresh = workload.build_module()
    assert module == fresh, workload.name
    assert repr(module) == repr(fresh), workload.name
    assert attributes(module) == before, workload.name
    return checked


@pytest.mark.parametrize("bug", POPULATION, ids=lambda bug: bug.name)
def test_one_parse_serves_every_tool_program(bug):
    assert assert_transform_shares_safely(bug) >= 8


GUARDED = """
int count;
int check(int x) {
    while (x > 0) {
        if (x > 3) {
            error(1, "too big");
        } else if (x == 2) {
            error(2, "two");
        }
        x = x - 1;
    }
    for (count = 0; count < 2; count = count + 1) {
        print(count);
    }
    return 0;
}
int main(int x) { return check(x); }
"""


def test_only_the_rewritten_path_is_copied():
    module = parse(GUARDED)
    enhanced = enhance_logging(module, success_scheme="proactive")
    check, new = module.function("check"), enhanced.function("check")
    loop, new_loop = check.body.statements[0], new.body.statements[0]
    assert new is not check and new_loop is not loop
    guard = loop.body.statements[0]
    hoisted = new_loop.body.statements[3]
    assert isinstance(hoisted, ast.If) and hoisted is not guard
    # The hoist moves the parsed condition itself; the parse keeps it.
    assert new_loop.body.statements[1].value is guard.cond
    assert isinstance(hoisted.cond, ast.Name)
    # Unrewritten statements and the loop without a log call are shared.
    assert new_loop.body.statements[-1] is loop.body.statements[-1]
    assert new.body.statements[1] is check.body.statements[1]
    assert enhanced.globals[0] is module.globals[0]
    assert module == parse(GUARDED)


def test_signal_handlers_are_not_written_into_the_parsed_module():
    module = parse(GUARDED)
    module.metadata["signal_handlers"] = {"SIGFPE": "check"}
    enhanced = enhance_logging(module)
    assert module.metadata == {"signal_handlers": {"SIGFPE": "check"}}
    assert enhanced.metadata["signal_handlers"] == {
        "SIGFPE": "check", "SIGSEGV": "__segv_handler",
        "HANG": "__segv_handler"}
