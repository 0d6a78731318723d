"""One-call compilation pipeline: MiniC source to executable Program.

A program is its module's functions followed by the stdlib's.  The
stdlib is not generated again for each program: :func:`compile_module`
links relocated copies of code generated once per process
(:func:`~repro.compiler.stdlib.stdlib_template`), the way the paper's
applications link a prebuilt glibc.  The program is byte for byte the
one ``Compiler(link_with_stdlib(module)).compile()`` generates whole.
"""

from repro.lang.ast_nodes import Module
from repro.lang.parser import parse
from repro.compiler.codegen import Compiler
from repro.compiler.stdlib import stdlib_module, stdlib_template


def link_with_stdlib(module):
    """Return *module* merged with the standard library.

    User definitions shadow stdlib functions of the same name — that is
    how benchmark applications provide their own application-specific
    failure-logging functions (``ap_log_error``-alikes) while everything
    else comes from the stdlib.
    """
    stdlib = stdlib_module()
    user_functions = {f.name for f in module.functions}
    user_globals = {g.name for g in module.globals}
    merged_functions = list(module.functions) + [
        f for f in stdlib.functions if f.name not in user_functions
    ]
    merged_globals = list(module.globals) + [
        g for g in stdlib.globals if g.name not in user_globals
    ]
    merged = Module(
        globals=merged_globals,
        functions=merged_functions,
        source_name=module.source_name,
    )
    merged.metadata.update(module.metadata)
    return merged


def compile_module(module, toggling=False, include_stdlib=True,
                   entry="main"):
    """Compile an AST module (optionally linked with the stdlib)."""
    if not include_stdlib:
        return Compiler(module, toggling=toggling).compile(entry=entry)
    return Compiler(link_with_stdlib(module), toggling=toggling).compile(
        entry=entry, prebuilt=stdlib_template())


def compile_source(source, source_name="<minic>", toggling=False,
                   include_stdlib=True, entry="main"):
    """Parse and compile MiniC *source*."""
    module = parse(source, source_name=source_name)
    return compile_module(
        module, toggling=toggling, include_stdlib=include_stdlib,
        entry=entry,
    )
