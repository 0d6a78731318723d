"""MiniC code generation.

The generated code is deliberately "-O0"-shaped: expression temporaries
live on the machine stack and locals live in memory-resident stack frames.
Two properties matter for fidelity to the paper:

* **Branch mapping (Figure 2).**  Every source-level conditional compiles
  to a conditional jump for its false edge plus a "harmless unconditional
  branch along the fall-through edge" for its true edge, so whichever way
  the source branch goes, a machine branch with known source outcome is
  recorded in the LBR.  Loop back-edges are additionally tagged so
  iteration structure is visible.
* **Toggling (Section 4.3).**  When compiled with ``toggling=True``, every
  call from application code into a ``library`` function is bracketed with
  core-local LBR/LCR disable/enable operations — the wrapper-function
  technique the paper uses to keep glibc branches from polluting the
  precious 16 ring entries.

Library code can also be generated once, as relocatable
:class:`FunctionTemplate`\\ s (:meth:`Compiler.template`), and linked into
any number of programs as fresh copies (``compile(prebuilt=...)``) — how
the stdlib is linked, like the prebuilt glibc the paper's applications
link.
"""

import dataclasses
import operator
from typing import NamedTuple

from repro.isa.asm import Assembler
from repro.isa.instructions import (
    BinaryOperator,
    HwOp,
    Instruction,
    Opcode,
    UnaryOperator,
)
from repro.isa.layout import CODE_BASE, INSTRUCTION_SIZE, WORD_SIZE
from repro.isa.registers import ARG_REGISTERS, FP, RV, SP
from repro.isa.program import SourceBranch, SourceLocation
from repro.lang import ast_nodes as ast
from repro.compiler.symbols import FrameLayout, GlobalTable, SymbolError

_BINOPS = {
    "+": BinaryOperator.ADD, "-": BinaryOperator.SUB,
    "*": BinaryOperator.MUL, "/": BinaryOperator.DIV,
    "%": BinaryOperator.MOD, "&": BinaryOperator.AND,
    "|": BinaryOperator.OR, "^": BinaryOperator.XOR,
    "<<": BinaryOperator.SHL, ">>": BinaryOperator.SHR,
    "<": BinaryOperator.LT, "<=": BinaryOperator.LE,
    ">": BinaryOperator.GT, ">=": BinaryOperator.GE,
    "==": BinaryOperator.EQ, "!=": BinaryOperator.NE,
}

_UNOPS = {
    "-": UnaryOperator.NEG,
    "!": UnaryOperator.NOT,
    "~": UnaryOperator.BNOT,
}

#: Builtin hardware-monitoring functions: name -> (HwOp, broadcast,
#: takes_imm_argument, returns_value)
_HW_BUILTINS = {}
for _op in HwOp:
    _takes_imm = _op.value.endswith(("config", "profile"))
    _HW_BUILTINS["__%s" % _op.value] = (_op, False, _takes_imm, False)
    _HW_BUILTINS["__%s_all" % _op.value] = (_op, True, _takes_imm, False)
_HW_BUILTINS["__pmc_read"] = (HwOp.PMC_READ, False, True, True)

#: Scratch registers used by the stack-machine expression discipline.
_R0, _R1, _R2 = 7, 8, 9

#: The Instruction fields a template stores, in constructor order (the
#: address is left to the linker).
_FIELDS = tuple(f.name for f in dataclasses.fields(Instruction)
                if f.name != "address")
_TARGET, _IMM = _FIELDS.index("target"), _FIELDS.index("imm")
_field_values = operator.attrgetter(*_FIELDS)

#: Branch opcodes whose target is a function, not a label of its own code.
_CALL_OPCODES = frozenset({Opcode.CALL, Opcode.SPAWN})


class CompileError(Exception):
    """Raised for semantically invalid MiniC."""

    def __init__(self, message, line=0):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class FunctionTemplate(NamedTuple):
    """One function's generated code, relocatable into any program.

    Everything in it is independent of where the function lands and of
    the program around it, except what the three relocation lists name;
    :meth:`Compiler.compile` patches those in each copy.
    """

    decl: object        # the FunctionDecl the code was generated from
    fields: tuple       # per instruction, its field values (_FIELDS)
    jumps: tuple        # (index, target's byte offset from the entry)
    global_refs: tuple  # (index, global name, is_array): an LI of its address
    branches: tuple     # (index, SourceBranch), in emission order
    locations: tuple    # the SourceLocation of each instruction


class Compiler:
    """Compiles one :class:`~repro.lang.ast_nodes.Module` to a Program."""

    def __init__(self, module, toggling=False):
        self.module = module
        self.toggling = toggling
        self.asm = Assembler(source_name=module.source_name)
        self.globals = GlobalTable()
        self._functions = {f.name: f for f in module.functions}
        self._branch_records = []    # (Instruction, SourceBranch)
        self._location_records = []  # (Instruction, SourceLocation)
        self._label_counter = 0
        self._site_counters = {}
        self._frame = None
        self._current = None
        self._epilogue = None
        self._break_labels = []
        self._continue_labels = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def compile(self, entry="main", prebuilt=None):
        """Generate code for the whole module.

        *prebuilt* maps function names to :class:`FunctionTemplate`\\ s.
        A function of the module that one of them was generated from is
        linked as a relocated copy of it, not generated again; the
        program is the same either way.
        """
        if entry not in self._functions:
            raise CompileError("no entry function %r" % (entry,))
        for decl in self.module.globals:
            address = self.asm.global_word(
                decl.name, count=decl.size, init=decl.init
            )
            self.globals.declare(decl.name, address, size=decl.size,
                                 is_array=decl.is_array)
        for function in self.module.functions:
            template = prebuilt.get(function.name) if prebuilt else None
            if template is not None and template.decl is function:
                self._link_copy(template)
            else:
                self._gen_function(function)
        program = self.asm.link(entry=entry)
        for instr, branch in self._branch_records:
            program.debug_info.branches[instr.address] = branch
        for instr, location in self._location_records:
            program.debug_info.locations[instr.address] = location
        program.metadata.update(self.module.metadata)
        return program

    def template(self):
        """Generate every function of the module as a relocatable
        :class:`FunctionTemplate`; returns ``{name: template}``.

        The code is what :meth:`compile` would generate for the same
        functions inside any program, up to what the templates list for
        relocation: the address of each local branch target and of each
        global.  Calls keep their callee's name, so the linking program
        resolves them, to its own definition where it shadows one.
        Only library functions qualify: no call from library code is
        toggled, so their code is the same with toggling on or off.
        """
        for decl in self.module.globals:
            # The name stands in for the address: no address is a str.
            self.globals.declare(decl.name, decl.name, size=decl.size,
                                 is_array=decl.is_array)
        for function in self.module.functions:
            if not function.is_library:
                raise CompileError("%r is not library code, so its code "
                                   "depends on toggling" % function.name,
                                   function.line)
            self._gen_function(function)
        program = self.asm.link(entry=None)
        if program.string_table:
            raise CompileError("string literals in a template are not "
                               "relocated")
        callees = {info.entry: name
                   for name, info in program.functions.items()}
        locations = {instr.address: location
                     for instr, location in self._location_records}
        templates = {}
        for decl in self.module.functions:
            info = program.functions[decl.name]
            first = (info.entry - CODE_BASE) // INSTRUCTION_SIZE
            code = program.instructions[
                first:(info.end - CODE_BASE) // INSTRUCTION_SIZE]
            fields, jumps, global_refs = [], [], []
            for index, instr in enumerate(code):
                values = list(_field_values(instr))
                if instr.opcode in _CALL_OPCODES:
                    values[_TARGET] = callees[instr.target]
                elif instr.target is not None:
                    jumps.append((index, instr.target - info.entry))
                    values[_TARGET] = None
                if isinstance(instr.imm, str):
                    symbol = self.globals.lookup(instr.imm)
                    global_refs.append((index, symbol.name, symbol.is_array))
                    values[_IMM] = None
                fields.append(tuple(values))
            branches = tuple(
                ((instr.address - info.entry) // INSTRUCTION_SIZE, branch)
                for instr, branch in self._branch_records
                if info.contains(instr.address))
            templates[decl.name] = FunctionTemplate(
                decl, tuple(fields), tuple(jumps), tuple(global_refs),
                branches, tuple(locations[instr.address] for instr in code))
        return templates

    def _link_copy(self, template):
        """Append fresh, relocated instructions of a prebuilt function."""
        decl = template.decl
        start = self.asm.function(decl.name, is_library=decl.is_library)
        code = [Instruction(*fields) for fields in template.fields]
        origin = CODE_BASE + start * INSTRUCTION_SIZE
        for index, offset in template.jumps:
            code[index].target = origin + offset
        for index, name, is_array in template.global_refs:
            symbol = self.globals.lookup(name)
            if symbol.is_array != is_array:
                raise CompileError(
                    "%r was prebuilt for %s global %r" % (
                        decl.name, "an array" if is_array else "a scalar",
                        name), decl.line)
            code[index].imm = symbol.address
        self.asm.emit_all(code)
        self._branch_records.extend(
            (code[index], branch) for index, branch in template.branches)
        self._location_records.extend(zip(code, template.locations))

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _emit(self, opcode, line, **fields):
        instr = self.asm.op(opcode, line=line, **fields)
        self._location_records.append(
            (instr, SourceLocation(function=self._current.name, line=line))
        )
        return instr

    def _fresh_label(self, hint):
        self._label_counter += 1
        return ".%s_%d" % (hint, self._label_counter)

    def _branch_site_id(self, line):
        key = (self._current.name, line)
        count = self._site_counters.get(key, 0)
        self._site_counters[key] = count + 1
        base = "%s:%d" % key
        return base if count == 0 else "%s#%d" % (base, count)

    def _tag_branch(self, instr, branch_id, line, outcome, description=""):
        self._branch_records.append((instr, SourceBranch(
            branch_id=branch_id,
            location=SourceLocation(function=self._current.name, line=line),
            outcome=outcome,
            description=description,
        )))

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _gen_function(self, decl):
        if len(decl.params) > len(ARG_REGISTERS):
            raise CompileError(
                "function %r takes too many parameters (max %d)"
                % (decl.name, len(ARG_REGISTERS)), decl.line,
            )
        self._current = decl
        self._frame = FrameLayout()
        self._epilogue = self._fresh_label("epilogue_%s" % decl.name)
        try:
            for param in decl.params:
                self._frame.declare(param)
            self._declare_locals(decl.body)
        except SymbolError as exc:
            raise CompileError(str(exc), decl.line)
        self.asm.function(decl.name, is_library=decl.is_library)
        line = decl.line
        self._emit(Opcode.PUSH, line, rs=FP)
        self._emit(Opcode.MOV, line, rd=FP, rs=SP)
        if self._frame.frame_size:
            self._emit(Opcode.LI, line, rd=_R0, imm=self._frame.frame_size)
            self._emit(Opcode.BINOP, line, operator=BinaryOperator.SUB,
                       rd=SP, rs=SP, rs2=_R0)
        for position, param in enumerate(decl.params):
            symbol = self._frame.lookup(param)
            self._emit(Opcode.STORE, line, rd=FP,
                       rs=ARG_REGISTERS[position], offset=symbol.offset)
        self._gen_block(decl.body)
        last_line = self._last_line(decl)
        self._emit(Opcode.LI, last_line, rd=RV, imm=0)
        self.asm.label(self._epilogue)
        self._emit(Opcode.MOV, last_line, rd=SP, rs=FP)
        self._emit(Opcode.POP, last_line, rd=FP)
        self._emit(Opcode.RET, last_line)

    def _declare_locals(self, block):
        for statement in ast.walk_statements(block):
            if isinstance(statement, ast.LocalDecl):
                self._frame.declare(statement.name, size=statement.size,
                                    is_array=statement.is_array)
            elif (isinstance(statement, ast.For)
                  and isinstance(statement.init, ast.LocalDecl)):
                self._frame.declare(statement.init.name,
                                    size=statement.init.size,
                                    is_array=statement.init.is_array)

    @staticmethod
    def _last_line(decl):
        lines = [s.line for s in ast.walk_statements(decl.body)]
        return max(lines) if lines else decl.line

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _gen_block(self, block):
        for statement in block.statements:
            self._gen_statement(statement)

    def _gen_statement(self, statement):
        if isinstance(statement, ast.LocalDecl):
            if statement.init is not None:
                if statement.is_array:
                    raise CompileError("array initializers not supported "
                                       "for locals", statement.line)
                self._gen_expression(statement.init)
                self._store_scalar(statement.name, statement.line)
        elif isinstance(statement, ast.Assign):
            self._gen_assign(statement)
        elif isinstance(statement, ast.If):
            self._gen_if(statement)
        elif isinstance(statement, ast.While):
            self._gen_while(statement)
        elif isinstance(statement, ast.For):
            self._gen_for(statement)
        elif isinstance(statement, ast.Return):
            line = statement.line
            if statement.value is not None:
                self._gen_expression(statement.value)
                self._emit(Opcode.POP, line, rd=RV)
            else:
                self._emit(Opcode.LI, line, rd=RV, imm=0)
            self._emit(Opcode.JMP, line, target=self._epilogue)
        elif isinstance(statement, ast.Break):
            if not self._break_labels:
                raise CompileError("break outside loop", statement.line)
            self._emit(Opcode.JMP, statement.line,
                       target=self._break_labels[-1])
        elif isinstance(statement, ast.Continue):
            if not self._continue_labels:
                raise CompileError("continue outside loop", statement.line)
            self._emit(Opcode.JMP, statement.line,
                       target=self._continue_labels[-1])
        elif isinstance(statement, ast.ExprStmt):
            self._gen_expression(statement.expr)
            self._emit(Opcode.POP, statement.line, rd=_R0)
        elif isinstance(statement, ast.Block):
            self._gen_block(statement)
        elif isinstance(statement, ast.ProfilePoint):
            self._gen_profile_point(statement)
        elif isinstance(statement, ast.HwStatement):
            self._emit(Opcode.HWOP, statement.line,
                       hwop=HwOp(statement.op), imm=statement.imm,
                       offset=1 if statement.broadcast else 0)
        else:  # pragma: no cover - parser produces no other nodes
            raise CompileError(
                "unsupported statement %r" % (statement,),
                getattr(statement, "line", 0),
            )

    def _gen_assign(self, statement):
        line = statement.line
        target = statement.target
        self._gen_expression(statement.value)
        if isinstance(target, ast.Name):
            self._store_scalar(target.name, line)
        elif isinstance(target, ast.Index):
            self._gen_element_address(target.base, target.index, line)
            self._emit(Opcode.POP, line, rd=_R1)   # address
            self._emit(Opcode.POP, line, rd=_R0)   # value
            self._emit(Opcode.STORE, line, rd=_R1, rs=_R0)
        else:  # pragma: no cover - parser validates targets
            raise CompileError("invalid assignment target", line)

    def _store_scalar(self, name, line):
        """Pop the stack top into the scalar variable *name*."""
        self._emit(Opcode.POP, line, rd=_R0)
        local = self._frame.lookup(name)
        if local is not None:
            if local.is_array:
                raise CompileError("cannot assign to array %r" % name, line)
            self._emit(Opcode.STORE, line, rd=FP, rs=_R0,
                       offset=local.offset)
            return
        symbol = self.globals.lookup(name)
        if symbol is None:
            raise CompileError("undeclared variable %r" % (name,), line)
        if symbol.is_array:
            raise CompileError("cannot assign to array %r" % name, line)
        self._emit(Opcode.LI, line, rd=_R1, imm=symbol.address)
        self._emit(Opcode.STORE, line, rd=_R1, rs=_R0)

    def _gen_if(self, statement):
        line = statement.line
        site = self._branch_site_id(line)
        then_label = self._fresh_label("then")
        end_label = self._fresh_label("endif")
        else_label = self._fresh_label("else") if statement.orelse else \
            end_label
        self._gen_expression(statement.cond)
        self._emit(Opcode.POP, line, rd=_R0)
        false_jump = self._emit(Opcode.JZ, line, rs=_R0, target=else_label)
        self._tag_branch(false_jump, site, line, outcome=False,
                         description="if-false")
        # Figure 2: the fall-through edge gets a harmless unconditional
        # branch so the true outcome is also recorded in the LBR.
        true_jump = self._emit(Opcode.JMP, line, target=then_label)
        self._tag_branch(true_jump, site, line, outcome=True,
                         description="if-true")
        self.asm.label(then_label)
        self._gen_block(statement.then)
        if statement.orelse is not None:
            self._emit(Opcode.JMP, self._block_end_line(statement.then),
                       target=end_label)
            self.asm.label(else_label)
            if isinstance(statement.orelse, ast.If):
                self._gen_statement(statement.orelse)
            else:
                self._gen_block(statement.orelse)
        self.asm.label(end_label)

    @staticmethod
    def _block_end_line(block):
        if block.statements:
            return getattr(block.statements[-1], "line", block.line)
        return block.line

    def _gen_while(self, statement):
        line = statement.line
        site = self._branch_site_id(line)
        cond_label = self._fresh_label("while_cond")
        body_label = self._fresh_label("while_body")
        end_label = self._fresh_label("while_end")
        self.asm.label(cond_label)
        self._gen_expression(statement.cond)
        self._emit(Opcode.POP, line, rd=_R0)
        exit_jump = self._emit(Opcode.JZ, line, rs=_R0, target=end_label)
        self._tag_branch(exit_jump, site, line, outcome=False,
                         description="loop-exit")
        enter_jump = self._emit(Opcode.JMP, line, target=body_label)
        self._tag_branch(enter_jump, site, line, outcome=True,
                         description="loop-enter")
        self.asm.label(body_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(cond_label)
        self._gen_block(statement.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        back_edge = self._emit(
            Opcode.JMP, self._block_end_line(statement.body),
            target=cond_label,
        )
        self._tag_branch(back_edge, site, line, outcome=None,
                         description="loop-back-edge")
        self.asm.label(end_label)

    def _gen_for(self, statement):
        line = statement.line
        cond_label = self._fresh_label("for_cond")
        body_label = self._fresh_label("for_body")
        step_label = self._fresh_label("for_step")
        end_label = self._fresh_label("for_end")
        if statement.init is not None:
            self._gen_statement(statement.init)
        self.asm.label(cond_label)
        if statement.cond is not None:
            site = self._branch_site_id(line)
            self._gen_expression(statement.cond)
            self._emit(Opcode.POP, line, rd=_R0)
            exit_jump = self._emit(Opcode.JZ, line, rs=_R0,
                                   target=end_label)
            self._tag_branch(exit_jump, site, line, outcome=False,
                             description="loop-exit")
            enter_jump = self._emit(Opcode.JMP, line, target=body_label)
            self._tag_branch(enter_jump, site, line, outcome=True,
                             description="loop-enter")
        self.asm.label(body_label)
        self._break_labels.append(end_label)
        self._continue_labels.append(step_label)
        self._gen_block(statement.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        self.asm.label(step_label)
        if statement.step is not None:
            self._gen_statement(statement.step)
        back_edge = self._emit(
            Opcode.JMP, self._block_end_line(statement.body),
            target=cond_label,
        )
        if statement.cond is not None:
            self._tag_branch(back_edge, site, line, outcome=None,
                             description="loop-back-edge")
        self.asm.label(end_label)

    def _gen_profile_point(self, statement):
        """Emit the Figure 7 profile sequence for a logging site."""
        line = statement.line
        rings = statement.rings
        if "lbr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LBR_DISABLE)
        if "lcr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LCR_DISABLE)
        if "lbr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LBR_PROFILE,
                       imm=statement.site_id)
        if "lcr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LCR_PROFILE,
                       imm=statement.site_id)
        if "lcr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LCR_ENABLE)
        if "lbr" in rings:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LBR_ENABLE)

    # ------------------------------------------------------------------
    # Expressions — every expression leaves exactly one value pushed
    # ------------------------------------------------------------------

    def _gen_expression(self, expr):
        if isinstance(expr, ast.Num):
            self._emit(Opcode.LI, expr.line, rd=_R0, imm=expr.value)
            self._emit(Opcode.PUSH, expr.line, rs=_R0)
        elif isinstance(expr, ast.Str):
            index = self.asm.string(expr.value)
            self._emit(Opcode.LI, expr.line, rd=_R0, imm=index)
            self._emit(Opcode.PUSH, expr.line, rs=_R0)
        elif isinstance(expr, ast.Name):
            self._gen_name(expr)
        elif isinstance(expr, ast.Index):
            self._gen_element_address(expr.base, expr.index, expr.line)
            self._emit(Opcode.POP, expr.line, rd=_R1)
            self._emit(Opcode.LOAD, expr.line, rd=_R0, rs=_R1)
            self._emit(Opcode.PUSH, expr.line, rs=_R0)
        elif isinstance(expr, ast.AddressOf):
            if expr.index is None:
                self._push_variable_address(expr.name, expr.line)
            else:
                self._gen_element_address(expr.name, expr.index, expr.line)
        elif isinstance(expr, ast.BinOp):
            operator = _BINOPS.get(expr.op)
            if operator is None:
                raise CompileError("unknown operator %r" % expr.op,
                                   expr.line)
            self._gen_expression(expr.left)
            self._gen_expression(expr.right)
            self._emit(Opcode.POP, expr.line, rd=_R1)
            self._emit(Opcode.POP, expr.line, rd=_R0)
            self._emit(Opcode.BINOP, expr.line, operator=operator,
                       rd=_R0, rs=_R0, rs2=_R1)
            self._emit(Opcode.PUSH, expr.line, rs=_R0)
        elif isinstance(expr, ast.UnOp):
            self._gen_expression(expr.operand)
            self._emit(Opcode.POP, expr.line, rd=_R0)
            self._emit(Opcode.UNOP, expr.line, operator=_UNOPS[expr.op],
                       rd=_R0, rs=_R0)
            self._emit(Opcode.PUSH, expr.line, rs=_R0)
        elif isinstance(expr, ast.LogicalOp):
            self._gen_logical(expr)
        elif isinstance(expr, ast.Call):
            self._gen_call(expr)
        elif isinstance(expr, ast.Spawn):
            self._gen_spawn(expr)
        else:  # pragma: no cover - parser produces no other nodes
            raise CompileError("unsupported expression %r" % (expr,),
                               getattr(expr, "line", 0))

    def _gen_name(self, expr):
        line = expr.line
        local = self._frame.lookup(expr.name)
        if local is not None:
            if local.is_array:
                self._push_variable_address(expr.name, line)
                return
            self._emit(Opcode.LOAD, line, rd=_R0, rs=FP,
                       offset=local.offset)
            self._emit(Opcode.PUSH, line, rs=_R0)
            return
        symbol = self.globals.lookup(expr.name)
        if symbol is None:
            raise CompileError("undeclared variable %r" % (expr.name,),
                               line)
        if symbol.is_array:
            self._push_variable_address(expr.name, line)
            return
        self._emit(Opcode.LI, line, rd=_R1, imm=symbol.address)
        self._emit(Opcode.LOAD, line, rd=_R0, rs=_R1)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _push_variable_address(self, name, line):
        """Push the address of variable *name* itself (&name / array decay)."""
        local = self._frame.lookup(name)
        if local is not None:
            self._emit(Opcode.MOV, line, rd=_R0, rs=FP)
            self._emit(Opcode.LI, line, rd=_R1, imm=local.offset)
            self._emit(Opcode.BINOP, line, operator=BinaryOperator.ADD,
                       rd=_R0, rs=_R0, rs2=_R1)
            self._emit(Opcode.PUSH, line, rs=_R0)
            return
        symbol = self.globals.lookup(name)
        if symbol is None:
            raise CompileError("undeclared variable %r" % (name,), line)
        self._emit(Opcode.LI, line, rd=_R0, imm=symbol.address)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _gen_element_address(self, base_name, index_expr, line):
        """Push the address of ``base[index]``.

        For arrays the base is the array's own address; for scalars the
        base is the scalar's *value* — MiniC pointers are plain integers.
        """
        local = self._frame.lookup(base_name)
        symbol = self.globals.lookup(base_name)
        if local is not None and local.is_array:
            self._push_variable_address(base_name, line)
        elif symbol is not None and symbol.is_array:
            self._push_variable_address(base_name, line)
        else:
            self._gen_expression(ast.Name(name=base_name, line=line))
        self._gen_expression(index_expr)
        self._emit(Opcode.POP, line, rd=_R1)   # index
        self._emit(Opcode.POP, line, rd=_R0)   # base address
        self._emit(Opcode.LI, line, rd=_R2, imm=WORD_SIZE)
        self._emit(Opcode.BINOP, line, operator=BinaryOperator.MUL,
                   rd=_R1, rs=_R1, rs2=_R2)
        self._emit(Opcode.BINOP, line, operator=BinaryOperator.ADD,
                   rd=_R0, rs=_R0, rs2=_R1)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _gen_logical(self, expr):
        """Short-circuit && / || with LBR-visible branches."""
        line = expr.line
        site = self._branch_site_id(line)
        short_label = self._fresh_label("sc_short")
        rest_label = self._fresh_label("sc_rest")
        end_label = self._fresh_label("sc_end")
        is_and = expr.op == "&&"
        self._gen_expression(expr.left)
        self._emit(Opcode.POP, line, rd=_R0)
        opcode = Opcode.JZ if is_and else Opcode.JNZ
        short_jump = self._emit(opcode, line, rs=_R0, target=short_label)
        self._tag_branch(short_jump, site, line,
                         outcome=(not is_and),
                         description="short-circuit")
        through = self._emit(Opcode.JMP, line, target=rest_label)
        self._tag_branch(through, site, line, outcome=is_and,
                         description="short-circuit-fallthrough")
        self.asm.label(rest_label)
        self._gen_expression(expr.right)
        # Normalize the right operand to 0/1, as C's && and || do.
        self._emit(Opcode.POP, line, rd=_R0)
        self._emit(Opcode.LI, line, rd=_R1, imm=0)
        self._emit(Opcode.BINOP, line, operator=BinaryOperator.NE,
                   rd=_R0, rs=_R0, rs2=_R1)
        self._emit(Opcode.PUSH, line, rs=_R0)
        self._emit(Opcode.JMP, line, target=end_label)
        self.asm.label(short_label)
        self._emit(Opcode.LI, line, rd=_R0, imm=0 if is_and else 1)
        self._emit(Opcode.PUSH, line, rs=_R0)
        self.asm.label(end_label)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _gen_call(self, expr):
        if expr.name in _HW_BUILTINS:
            self._gen_hw_builtin(expr)
            return
        handler = _SOFT_BUILTINS.get(expr.name)
        if handler is not None:
            handler(self, expr)
            return
        callee = self._functions.get(expr.name)
        if callee is None:
            raise CompileError("call to undefined function %r"
                               % (expr.name,), expr.line)
        if len(expr.args) > len(ARG_REGISTERS):
            raise CompileError("too many arguments (max %d)"
                               % len(ARG_REGISTERS), expr.line)
        line = expr.line
        toggle = (self.toggling and callee.is_library
                  and not self._current.is_library)
        for arg in expr.args:
            self._gen_expression(arg)
        for position in reversed(range(len(expr.args))):
            self._emit(Opcode.POP, line, rd=ARG_REGISTERS[position])
        if toggle:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LBR_DISABLE,
                       comment="toggle")
            self._emit(Opcode.HWOP, line, hwop=HwOp.LCR_DISABLE,
                       comment="toggle")
        self._emit(Opcode.CALL, line, target=expr.name)
        if toggle:
            self._emit(Opcode.HWOP, line, hwop=HwOp.LCR_ENABLE,
                       comment="toggle")
            self._emit(Opcode.HWOP, line, hwop=HwOp.LBR_ENABLE,
                       comment="toggle")
        self._emit(Opcode.PUSH, line, rs=RV)

    def _gen_spawn(self, expr):
        callee = self._functions.get(expr.name)
        if callee is None:
            raise CompileError("spawn of undefined function %r"
                               % (expr.name,), expr.line)
        if len(expr.args) > len(ARG_REGISTERS):
            raise CompileError("too many spawn arguments", expr.line)
        line = expr.line
        for arg in expr.args:
            self._gen_expression(arg)
        for position in reversed(range(len(expr.args))):
            self._emit(Opcode.POP, line, rd=ARG_REGISTERS[position])
        self._emit(Opcode.SPAWN, line, rd=_R0, target=expr.name)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _gen_hw_builtin(self, expr):
        hwop, broadcast, takes_imm, returns_value = _HW_BUILTINS[expr.name]
        line = expr.line
        imm = None
        if takes_imm:
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Num):
                raise CompileError(
                    "%s takes one literal argument" % expr.name, line
                )
            imm = expr.args[0].value
        elif expr.args:
            raise CompileError("%s takes no arguments" % expr.name, line)
        fields = dict(hwop=hwop, imm=imm, offset=1 if broadcast else 0)
        if returns_value:
            fields["rd"] = _R0
        self._emit(Opcode.HWOP, line, **fields)
        self._emit(Opcode.PUSH, line,
                   rs=_R0 if returns_value else self._push_zero(line))

    def _push_zero(self, line):
        self._emit(Opcode.LI, line, rd=_R0, imm=0)
        return _R0

    # ------------------------------------------------------------------
    # Soft builtins (print, exit, sync, ...)
    # ------------------------------------------------------------------

    def _builtin_print(self, expr):
        self._one_arg(expr)
        line = expr.line
        self._gen_expression(expr.args[0])
        self._emit(Opcode.POP, line, rd=_R0)
        self._emit(Opcode.OUT, line, rs=_R0)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _builtin_print_str(self, expr):
        self._one_arg(expr)
        line = expr.line
        argument = expr.args[0]
        if isinstance(argument, ast.Str):
            index = self.asm.string(argument.value)
            self._emit(Opcode.OUTS, line, imm=index)
        else:
            self._gen_expression(argument)
            self._emit(Opcode.POP, line, rd=_R0)
            self._emit(Opcode.OUTS, line, rs=_R0)
        self._emit(Opcode.PUSH, line, rs=self._push_zero(line))

    def _builtin_exit(self, expr):
        self._one_arg(expr)
        line = expr.line
        self._gen_expression(expr.args[0])
        self._emit(Opcode.POP, line, rd=RV)
        self._emit(Opcode.HALT, line)
        # Unreachable, but keeps the one-value-pushed invariant for the
        # enclosing expression statement.
        self._emit(Opcode.PUSH, line, rs=RV)

    def _builtin_assert(self, expr):
        self._one_arg(expr)
        line = expr.line
        self._gen_expression(expr.args[0])
        self._emit(Opcode.POP, line, rd=_R0)
        self._emit(Opcode.ASSERT, line, rs=_R0)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _builtin_yield(self, expr):
        if expr.args:
            raise CompileError("yield_() takes no arguments", expr.line)
        self._emit(Opcode.YIELD, expr.line)
        self._emit(Opcode.PUSH, expr.line, rs=self._push_zero(expr.line))

    def _builtin_lock(self, expr):
        self._sync_one_arg(expr, Opcode.LOCK)

    def _builtin_unlock(self, expr):
        self._sync_one_arg(expr, Opcode.UNLOCK)

    def _builtin_join(self, expr):
        self._sync_one_arg(expr, Opcode.JOIN)

    def _sync_one_arg(self, expr, opcode):
        self._one_arg(expr)
        line = expr.line
        self._gen_expression(expr.args[0])
        self._emit(Opcode.POP, line, rd=_R0)
        self._emit(opcode, line, rs=_R0)
        self._emit(Opcode.PUSH, line, rs=_R0)

    def _one_arg(self, expr):
        if len(expr.args) != 1:
            raise CompileError(
                "%s takes exactly one argument" % expr.name, expr.line
            )


_SOFT_BUILTINS = {
    "print": Compiler._builtin_print,
    "print_str": Compiler._builtin_print_str,
    "exit": Compiler._builtin_exit,
    "assert_true": Compiler._builtin_assert,
    "yield_": Compiler._builtin_yield,
    "lock": Compiler._builtin_lock,
    "unlock": Compiler._builtin_unlock,
    "join": Compiler._builtin_join,
}

#: Names usable as functions in MiniC without a definition.
BUILTIN_NAMES = frozenset(_SOFT_BUILTINS) | frozenset(_HW_BUILTINS)
