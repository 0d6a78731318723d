"""Instruction definitions.

Instructions are plain dataclasses interpreted by :mod:`repro.machine.interp`.
Each instruction carries a :class:`Ring` privilege level (the LBR and LCR can
filter by ring, mirroring Table 1 of the paper) and an optional source line
used for debug info and the patch-distance metric of Table 6.
"""

import enum
from dataclasses import dataclass, field


class Ring(enum.IntEnum):
    """Privilege level an instruction retires at."""

    KERNEL = 0
    USER = 3


class Opcode(enum.Enum):
    """Operation performed by an :class:`Instruction`."""

    LI = "li"            # rd <- imm
    MOV = "mov"          # rd <- rs
    BINOP = "binop"      # rd <- rs1 <op> rs2
    UNOP = "unop"        # rd <- <op> rs
    LOAD = "load"        # rd <- mem[rs + offset]
    STORE = "store"      # mem[rd + offset] <- rs
    PUSH = "push"        # sp -= 8; mem[sp] <- rs
    POP = "pop"          # rd <- mem[sp]; sp += 8
    JMP = "jmp"          # pc <- target
    JZ = "jz"            # if rs == 0: pc <- target
    JNZ = "jnz"          # if rs != 0: pc <- target
    CALL = "call"        # push return address; pc <- target
    CALLR = "callr"      # indirect call through rs
    RET = "ret"          # pop return address into pc
    SPAWN = "spawn"      # rd <- new thread id running function at target
    JOIN = "join"        # block until thread rs exits
    LOCK = "lock"        # acquire mutex at address rs
    UNLOCK = "unlock"    # release mutex at address rs
    YIELD = "yield"      # voluntarily invite a context switch
    OUT = "out"          # append register value to program output
    OUTS = "outs"        # append string-table entry to program output
    ASSERT = "assert"    # fault if rs == 0
    HWOP = "hwop"        # hardware-monitoring operation (see HwOp)
    HALT = "halt"        # terminate the process with exit code imm
    NOP = "nop"


class BinaryOperator(enum.Enum):
    """Binary ALU operators; comparisons produce 0 or 1."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="


class UnaryOperator(enum.Enum):
    """Unary ALU operators."""

    NEG = "-"
    NOT = "!"
    BNOT = "~"


class BranchKind(enum.Enum):
    """Classification of branch instructions, used by LBR filtering.

    Mirrors the branch classes configurable through ``LBR_SELECT``
    (Table 1 of the paper).
    """

    CONDITIONAL = "cond"
    UNCOND_DIRECT = "uncond_direct"
    UNCOND_INDIRECT = "uncond_indirect"
    NEAR_CALL = "near_call"
    NEAR_IND_CALL = "near_ind_call"
    NEAR_RET = "near_ret"
    FAR = "far"


class HwOp(enum.Enum):
    """Hardware-monitoring operations.

    These model the work the paper's ``/dev/lbrdriver`` kernel module
    performs on behalf of ``ioctl`` requests (Figure 7).  The user-visible
    ioctl wrappers live in :mod:`repro.kernel.driver`; a ``HWOP``
    instruction is the privileged core of one request and retires at
    ring 0, so it never pollutes a ring-3-filtered LBR.
    """

    LBR_RESET = "lbr_reset"
    LBR_CONFIG = "lbr_config"
    LBR_ENABLE = "lbr_enable"
    LBR_DISABLE = "lbr_disable"
    LBR_PROFILE = "lbr_profile"
    LCR_RESET = "lcr_reset"
    LCR_CONFIG = "lcr_config"
    LCR_ENABLE = "lcr_enable"
    LCR_DISABLE = "lcr_disable"
    LCR_PROFILE = "lcr_profile"
    PMC_CONFIG = "pmc_config"
    PMC_READ = "pmc_read"


#: Opcodes that transfer control when executed (and thus may enter the LBR).
BRANCH_OPCODES = frozenset(
    {Opcode.JMP, Opcode.JZ, Opcode.JNZ, Opcode.CALL, Opcode.CALLR, Opcode.RET}
)

#: Opcodes that access data memory (and thus may enter the LCR).
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.PUSH, Opcode.POP})


@dataclass
class Instruction:
    """One machine instruction.

    Operand fields are interpreted per opcode; unused fields stay ``None``.
    ``target`` holds a label name until the linker resolves it to an
    absolute address.
    """

    opcode: Opcode
    rd: int = None
    rs: int = None
    rs2: int = None
    imm: int = None
    offset: int = 0
    operator: object = None      # BinaryOperator or UnaryOperator
    target: object = None        # label name (str) or absolute address (int)
    hwop: HwOp = None
    ring: Ring = Ring.USER
    line: int = 0
    comment: str = ""

    # Filled by the linker:
    address: int = None

    def is_branch(self):
        """Return True if this instruction can transfer control."""
        return self.opcode in BRANCH_OPCODES

    def branch_kind(self):
        """Return the :class:`BranchKind` of a branch instruction."""
        if self.opcode in (Opcode.JZ, Opcode.JNZ):
            return BranchKind.CONDITIONAL
        if self.opcode is Opcode.JMP:
            return BranchKind.UNCOND_DIRECT
        if self.opcode is Opcode.CALL:
            return BranchKind.NEAR_CALL
        if self.opcode is Opcode.CALLR:
            return BranchKind.NEAR_IND_CALL
        if self.opcode is Opcode.RET:
            return BranchKind.NEAR_RET
        raise ValueError("not a branch: %r" % (self.opcode,))

    def is_memory_access(self):
        """Return True if this instruction reads or writes data memory."""
        return self.opcode in MEMORY_OPCODES

    def describe(self):
        """Return a compact human-readable rendering (for traces/tests).

        :func:`~repro.runtime.executor.fingerprint_program` hashes this
        text for every instruction of a program, so it reads each enum
        member's ``_value_`` rather than going through the ``value``
        descriptor, and tests each operand field in turn.
        """
        text = self.opcode._value_
        if self.operator is not None:
            text += " " + self.operator._value_
        if self.rd is not None:
            text += " r%d" % self.rd
        if self.rs is not None:
            text += " r%d" % self.rs
        if self.rs2 is not None:
            text += " r%d" % self.rs2
        if self.imm is not None:
            text += " #%d" % self.imm
        if self.target is not None:
            text += " ->%s" % (self.target,)
        if self.offset:
            text += " +%d" % self.offset
        if self.hwop is not None:
            text += " " + self.hwop._value_
        return text


def make_label_map(instructions, labels):
    """Resolve label names to instruction indices.

    *labels* maps label name -> instruction index; the helper validates that
    every branch target is either an int or a known label.
    """
    for instr in instructions:
        target = instr.target
        if target is None or isinstance(target, int):
            continue
        if target not in labels:
            raise KeyError("undefined label: %r" % (target,))
    return dict(labels)
