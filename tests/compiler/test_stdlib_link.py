"""The stdlib link: relocated copies equal the stdlib generated whole.

``compile_module`` links copies of stdlib code generated once per
process.  The program must be byte for byte the one the plain
``Compiler`` generates over ``link_with_stdlib(module)``: run-cache and
journal keys, triage signatures and ledger ids all hash it.  These tests
compare the two for every program a diagnosis tool builds, over the
corpus and a synthesized population.
"""

import pytest

from repro.bugs import synth
from repro.bugs.registry import all_bugs, get_bug
from repro.compiler import CompileError, compile_module
from repro.compiler.codegen import Compiler
from repro.compiler.frontend import link_with_stdlib
from repro.lang.parser import parse
from repro.lang.transform import ReactiveTarget, enhance_logging
from repro.machine.cpu import Machine
from repro.runtime.executor import fingerprint_program

_POPULATION = sorted(all_bugs(), key=lambda bug: bug.name) + [
    get_bug(name) for name in synth.population_names(8, seed=0)]


def tool_modules(workload):
    """``(label, module, toggling)`` for each program the diagnosis
    tools build for *workload*: the plain program of the CBI family,
    the failure-logging program with and without toggling, the
    proactive program, and one reactive success program per
    failure-logging site."""
    ring = "lbr" if workload.category == "sequential" else "lcr"
    module = workload.build_module()

    def enhanced(**options):
        return enhance_logging(module, log_functions=workload.log_functions,
                               rings=(ring,), **options)

    failure = enhanced()
    yield "plain", module, False
    yield "log", failure, True
    yield "log-untoggled", failure, False
    yield "proactive", enhanced(success_scheme="proactive"), True
    for site in failure.metadata["logging_sites"]:
        if site.kind == "failure-log":
            target = ReactiveTarget(kind="log", function=site.function,
                                    line=site.line)
            yield ("reactive@%d" % site.site_id,
                   enhanced(success_scheme="reactive",
                            reactive_target=target), True)


def assert_same_program(linked, whole, where):
    """Every byte of *linked* equals *whole*; they share no instruction."""
    assert fingerprint_program(linked) == fingerprint_program(whole), where
    # Instructions, the function table, debug info, layout, metadata.
    assert vars(linked) == vars(whole), where
    for name in ("functions", "global_init"):
        assert list(getattr(linked, name)) == list(getattr(whole, name)), \
            where
    for name in ("branches", "locations"):
        assert list(getattr(linked.debug_info, name)) \
            == list(getattr(whole.debug_info, name)), where
    assert not {id(i) for i in linked.instructions} \
        & {id(i) for i in whole.instructions}, where


def assert_links_like_full_codegen(workload):
    """Check every tool program of *workload* (see :func:`tool_modules`)."""
    for label, module, toggling in tool_modules(workload):
        where = "%s %s" % (workload.name, label)
        assert_same_program(
            compile_module(module, toggling=toggling),
            Compiler(link_with_stdlib(module), toggling=toggling).compile(),
            where)


@pytest.mark.parametrize("bug", _POPULATION, ids=lambda bug: bug.name)
def test_linked_stdlib_equals_full_codegen(bug):
    assert_links_like_full_codegen(bug)


SHADOWING = """
int __brk = 5;
int table[3];
int format_int(int value) { print(value + 1); return 0; }
int main() {
    int p = malloc(2);
    fput_int(p);
    print(table[1]);
    return printf_d("n", 7);
}
"""


def test_user_shadows_a_stdlib_function_and_its_global():
    module = parse(SHADOWING)
    assert_same_program(compile_module(module),
                        Compiler(link_with_stdlib(module)).compile(),
                        "shadowing module")
    # malloc bumps the user's __brk; fput_int calls the user's format_int.
    machine = Machine(compile_module(module))
    machine.load()
    status = machine.run()
    assert status.output == (6, 5, 0, 8, "n", 7)
    assert machine.get_global("__brk") == 5 + 2 * 8


def test_shadowing_a_stdlib_scalar_with_an_array_fails_either_way():
    module = parse("int __brk[4];\nint main() { return malloc(1); }")
    with pytest.raises(CompileError):
        Compiler(link_with_stdlib(module)).compile()
    with pytest.raises(CompileError):
        compile_module(module)


def test_two_compiles_share_no_instruction():
    module = get_bug("sort").build_module()
    one, two = compile_module(module), compile_module(module)
    assert vars(one) == vars(two)
    assert not {id(i) for i in one.instructions} \
        & {id(i) for i in two.instructions}
