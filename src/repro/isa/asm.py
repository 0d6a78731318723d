"""A tiny assembler for building :class:`~repro.isa.program.Program` objects
directly from instruction lists.

The MiniC compiler (:mod:`repro.compiler`) is the normal way to produce
programs; this helper exists for unit tests, micro-benchmarks, and examples
that want precise control over the machine-code stream (e.g. to exercise a
specific LBR filter).

Usage::

    blocks = Assembler()
    blocks.function("main")
    blocks.emit(Instruction(Opcode.LI, rd=7, imm=3))
    blocks.label("loop")
    ...
    program = blocks.link()
"""

from repro.isa.instructions import Instruction, Opcode
from repro.isa.layout import CODE_BASE, GLOBALS_BASE, INSTRUCTION_SIZE, WORD_SIZE
from repro.isa.program import DebugInfo, FunctionInfo, Program


class Assembler:
    """Accumulates instructions, labels, functions, globals and strings."""

    def __init__(self, source_name="<asm>"):
        self.source_name = source_name
        self._instructions = []
        self._labels = {}
        self._functions = []
        self._strings = []
        self._globals = {}
        self._globals_size = 0
        self._global_init = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def function(self, name, is_library=False):
        """Start a new function at the current position; return that
        position (the index of the function's first instruction)."""
        self._close_function()
        start = len(self._instructions)
        self._functions.append(
            (FunctionInfo(name=name, is_library=is_library), start)
        )
        self.label(name)
        return start

    def label(self, name):
        """Define *name* at the current position."""
        if name in self._labels:
            raise ValueError("duplicate label: %r" % (name,))
        self._labels[name] = len(self._instructions)

    def emit(self, instruction):
        """Append one instruction."""
        self._instructions.append(instruction)
        return instruction

    def emit_all(self, instructions):
        """Append a sequence of instructions."""
        self._instructions.extend(instructions)

    def op(self, opcode, **fields):
        """Append ``Instruction(opcode, **fields)`` (convenience)."""
        return self.emit(Instruction(opcode, **fields))

    def string(self, text):
        """Intern *text*; return its string-table index."""
        if text in self._strings:
            return self._strings.index(text)
        self._strings.append(text)
        return len(self._strings) - 1

    def global_word(self, name, count=1, init=()):
        """Reserve *count* words of global storage for *name*."""
        if name in self._globals:
            raise ValueError("duplicate global: %r" % (name,))
        address = GLOBALS_BASE + self._globals_size
        self._globals[name] = address
        self._globals_size += count * WORD_SIZE
        for index, value in enumerate(init):
            self._global_init[address + index * WORD_SIZE] = value
        return address

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------

    def _close_function(self):
        if self._functions:
            info, _start = self._functions[-1]
            if info.end is None:
                info.end = 0  # patched during link

    def link(self, entry="main"):
        """Resolve labels and produce a :class:`Program`."""
        self._close_function()
        address_of = {
            name: CODE_BASE + index * INSTRUCTION_SIZE
            for name, index in self._labels.items()
        }
        for instr in self._instructions:
            if isinstance(instr.target, str):
                if instr.target not in address_of:
                    raise KeyError("undefined label: %r" % (instr.target,))
                instr.target = address_of[instr.target]
        functions = []
        boundaries = [start for _info, start in self._functions]
        boundaries.append(len(self._instructions))
        for position, (info, start) in enumerate(self._functions):
            info.entry = CODE_BASE + start * INSTRUCTION_SIZE
            info.end = CODE_BASE + boundaries[position + 1] * INSTRUCTION_SIZE
            functions.append(info)
        return Program(
            instructions=self._instructions,
            functions=functions,
            string_table=self._strings,
            globals_layout=self._globals,
            globals_size=self._globals_size,
            global_init=self._global_init,
            debug_info=DebugInfo(),
            entry=entry,
            source_name=self.source_name,
        )


def halting_program(exit_code=0):
    """Build the smallest possible program (for tests)."""
    assembler = Assembler()
    assembler.function("main")
    assembler.op(Opcode.HALT, imm=exit_code)
    return assembler.link()
