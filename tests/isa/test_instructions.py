"""Tests for instruction definitions."""

import hashlib

import pytest

from repro.isa.instructions import (
    BRANCH_OPCODES,
    BinaryOperator,
    BranchKind,
    HwOp,
    Instruction,
    MEMORY_OPCODES,
    Opcode,
    Ring,
    UnaryOperator,
)
from repro.runtime.executor import fingerprint_program
from tests.lang.test_transform_sharing import POPULATION, tool_programs


def test_branch_classification():
    cases = {
        Opcode.JZ: BranchKind.CONDITIONAL,
        Opcode.JNZ: BranchKind.CONDITIONAL,
        Opcode.JMP: BranchKind.UNCOND_DIRECT,
        Opcode.CALL: BranchKind.NEAR_CALL,
        Opcode.CALLR: BranchKind.NEAR_IND_CALL,
        Opcode.RET: BranchKind.NEAR_RET,
    }
    for opcode, kind in cases.items():
        instr = Instruction(opcode)
        assert instr.is_branch()
        assert instr.branch_kind() is kind


def test_non_branch_rejects_branch_kind():
    instr = Instruction(Opcode.LI, rd=0, imm=1)
    assert not instr.is_branch()
    with pytest.raises(ValueError):
        instr.branch_kind()


def test_memory_opcodes():
    for opcode in (Opcode.LOAD, Opcode.STORE, Opcode.PUSH, Opcode.POP):
        assert Instruction(opcode).is_memory_access()
    assert not Instruction(Opcode.MOV).is_memory_access()


def test_branch_and_memory_sets_disjoint():
    assert not (BRANCH_OPCODES & MEMORY_OPCODES)


def test_default_ring_is_user():
    assert Instruction(Opcode.NOP).ring is Ring.USER


def test_describe_is_readable():
    instr = Instruction(Opcode.JZ, rs=3, target="loop")
    text = instr.describe()
    assert "jz" in text
    assert "r3" in text
    assert "loop" in text


# ----------------------------------------------------------------------
# describe() against the text it rendered before it was sped up
# ----------------------------------------------------------------------

def oracle_describe(instr):
    """``Instruction.describe`` as it was written first: the oracle."""
    parts = [instr.opcode.value]
    if instr.operator is not None:
        parts.append(instr.operator.value)
    for name in ("rd", "rs", "rs2"):
        value = getattr(instr, name)
        if value is not None:
            parts.append("r%d" % value)
    if instr.imm is not None:
        parts.append("#%d" % instr.imm)
    if instr.target is not None:
        parts.append("->%s" % (instr.target,))
    if instr.offset:
        parts.append("+%d" % instr.offset)
    if instr.hwop is not None:
        parts.append(instr.hwop.value)
    return " ".join(parts)


def oracle_fingerprint(program):
    """``fingerprint_program``'s digest over the oracle's text."""
    digest = hashlib.sha256()
    digest.update(program.source_name.encode())
    digest.update(program.entry.encode())
    digest.update("\n".join(
        [oracle_describe(instr) for instr in program.instructions]).encode())
    digest.update(b"\n")
    digest.update("".join(
        [repr(text) for text in program.string_table]).encode())
    digest.update(repr(sorted(program.globals_layout.items())).encode())
    digest.update(repr(program.globals_size).encode())
    digest.update(repr(sorted(program.global_init.items())).encode())
    return digest.hexdigest()


def assert_describes_like_oracle(workload):
    """Every instruction of every tool program of *workload* renders
    the oracle's text, and every program hashes to the oracle's digest;
    return how many instructions were compared."""
    compared = 0
    for label, program in tool_programs(workload):
        where = "%s %s" % (workload.name, label)
        for instr in program.instructions:
            assert instr.describe() == oracle_describe(instr), where
        assert fingerprint_program(program) == oracle_fingerprint(program), \
            where
        compared += len(program.instructions)
    return compared


@pytest.mark.parametrize("bug", POPULATION, ids=lambda bug: bug.name)
def test_describe_matches_the_oracle_on_every_tool_program(bug):
    assert assert_describes_like_oracle(bug) > 0


HAND_MADE = [
    Instruction(Opcode.NOP),
    Instruction(Opcode.BINOP, rd=1, rs=2, rs2=3,
                operator=BinaryOperator.SHL),
    Instruction(Opcode.UNOP, rd=4, rs=4, operator=UnaryOperator.BNOT),
    Instruction(Opcode.LI, rd=0, imm=0),
    Instruction(Opcode.LI, rd=5, imm=-17),
    Instruction(Opcode.LOAD, rd=2, rs=7, offset=16),
    Instruction(Opcode.STORE, rd=7, rs=3, offset=-8),
    Instruction(Opcode.JZ, rs=3, target="loop_head"),
    Instruction(Opcode.CALL, target=4096),
    Instruction(Opcode.HALT, imm=0),
    Instruction(Opcode.HWOP, hwop=HwOp.LBR_CONFIG, imm=0x1FF, offset=1,
                ring=Ring.KERNEL, line=12, comment="not rendered"),
    Instruction(Opcode.HWOP, hwop=HwOp.LCR_PROFILE, ring=Ring.KERNEL),
    Instruction(Opcode.OUTS, imm=3, comment="a comment"),
]


@pytest.mark.parametrize("instr", HAND_MADE, ids=oracle_describe)
def test_describe_matches_the_oracle_on_hand_made_instructions(instr):
    assert instr.describe() == oracle_describe(instr)


def test_ring_and_comment_are_not_rendered():
    plain = Instruction(Opcode.HWOP, hwop=HwOp.LBR_RESET, imm=0)
    marked = Instruction(Opcode.HWOP, hwop=HwOp.LBR_RESET, imm=0,
                         ring=Ring.KERNEL, comment="reset", line=40)
    assert marked.describe() == plain.describe() == "hwop #0 lbr_reset"
