"""Figure 2 — conditional branches in source and machine code.

Compiles the paper's Figure 2 snippet and shows how one source
conditional becomes a conditional jump (taken = source false) plus an
inserted unconditional jump on the fall-through edge (taken = source
true), then runs both directions and decodes the LBR.
"""

from repro.compiler.frontend import compile_source
from repro.experiments.report import ExperimentResult, traced
from repro.isa.instructions import Opcode
from repro.runtime.process import run_program

FIGURE2_SOURCE = """
int a = 0;
int main(int x) {
    a = x;
    __lbr_config_all(0x179);
    __lbr_enable_all();
    if (a != 0) {
        a = a + 1;
    } else {
        a = a - 1;
    }
    __lbr_profile(0);
    return a;
}
"""

_BRANCH_LINE = 7


def _decode_run(argument):
    program = compile_source(FIGURE2_SOURCE, source_name="figure2.c")
    status = run_program(program, args=(argument,))
    outcomes = []
    for entry in status.profiles[0].entries:
        branch = program.debug_info.branch_at(entry.from_address)
        if branch is not None and branch.location.line == _BRANCH_LINE \
                and branch.location.function == "main":
            outcomes.append(branch.outcome)
    return program, outcomes


@traced("experiment.figure2")
def run(executor=None):
    """Regenerate the Figure 2 demonstration (single direct runs;
    *executor* accepted for uniformity)."""
    del executor
    program, _ = _decode_run(1)
    rows = []
    for instr in program.instructions:
        branch = program.debug_info.branch_at(instr.address)
        if branch is None or branch.location.line != _BRANCH_LINE \
                or branch.location.function != "main":
            continue
        kind = "conditional jump (false edge)" \
            if instr.opcode in (Opcode.JZ, Opcode.JNZ) \
            else "inserted unconditional jump (true edge)"
        rows.append((
            "0x%x" % instr.address,
            instr.opcode.value,
            kind,
            str(branch),
        ))
    _, true_outcomes = _decode_run(1)
    _, false_outcomes = _decode_run(0)
    return ExperimentResult(
        name="figure2",
        title="Figure 2: machine branches for one source conditional "
              "(if (a != 0) at line %d)" % _BRANCH_LINE,
        headers=["address", "opcode", "role", "decoded"],
        rows=rows,
        notes=[
            "taken x=1 records outcome %s; taken x=0 records outcome %s"
            % (true_outcomes, false_outcomes),
            "both directions leave a decodable record in the LBR",
        ],
    )
