"""Source-to-source log enhancement (Section 5.1 of the paper).

The transformer takes a MiniC module and a developer-configurable list of
application-specific failure-logging functions, and produces an enhanced
module that:

1. (compilation is configured to use toggling wrappers — the compiler's
   ``toggling=True`` flag);
2. inserts LBR/LCR configuration and enabling code at the entry of
   ``main`` (Figure 7);
3. inserts LBR/LCR profiling right before every call to a
   failure-logging function;
4. registers a custom segmentation-fault handler that profiles LBR/LCR.

For LBRA/LCRA it additionally inserts *success logging sites*
(Section 5.2, Figure 8): for a failure-logging call guarded by a
conditional, the condition is hoisted into a temporary and a success
profile point is placed right before the branch into the basic block
containing the failure site::

    if (expr) {            tmp = expr;
      error(...);   ==>    PROFILE();          // success logging site
    }                      if (tmp) {
                             PROFILE();        // failure logging site
                             error(...);
                           }

Two success-site schemes exist: ``proactive`` instruments every site
before release; ``reactive`` instruments only the site where a failure
was already observed (shipped as a patch after the first failure).
"""

import operator
from dataclasses import dataclass, replace

from repro.hwpmu.lbr import LBR_SELECT_PAPER_MASK
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class LoggingSite:
    """One profiling site created by the transformer."""

    site_id: int
    kind: str              # "failure-log", "segv-handler", or "success"
    function: str          # enclosing function
    line: int
    log_function: str = ""
    paired_failure_site: int = -1


@dataclass(frozen=True)
class ReactiveTarget:
    """Where the reactive scheme should add a success site.

    ``kind`` is ``"log"`` (a guarded failure-logging call — the Figure 8
    transformation) or ``"segv"`` (insert the success profile right after
    the statement that faulted).
    """

    kind: str
    function: str
    line: int


#: Default handler function name injected for segmentation faults.
SEGV_HANDLER_NAME = "__segv_handler"


class LogEnhancer:
    """Configurable log-enhancement transformer."""

    def __init__(self, log_functions=("error",), rings=("lbr", "lcr"),
                 lcr_selector=2, success_scheme="none",
                 reactive_target=None, register_segv_handler=True):
        if success_scheme not in ("none", "proactive", "reactive"):
            raise ValueError("unknown success scheme %r" % success_scheme)
        if success_scheme == "reactive" and reactive_target is None:
            raise ValueError("reactive scheme needs a reactive_target")
        self.log_functions = frozenset(log_functions)
        self.rings = tuple(rings)
        self.lcr_selector = lcr_selector
        self.success_scheme = success_scheme
        self.reactive_target = reactive_target
        self.register_segv_handler = register_segv_handler
        self._sites = []
        self._temp_counter = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def transform(self, module):
        """Return an enhanced copy of *module*, leaving *module* untouched.

        Only what the rewrite changes is new: the module with its
        function and global lists and metadata, each non-library
        function, ``main`` with its prologue, and each if/while/for on
        the way to a rewritten statement.  Every other node is shared
        with *module*, which one parse may serve to many transforms.
        """
        self._sites = []
        self._temp_counter = 0
        functions = [
            function if function.is_library
            else replace(function, body=self._rewrite_block(function,
                                                            function.body))
            for function in module.functions
        ]
        for index, function in enumerate(functions):
            if function.name == "main":
                functions[index] = replace(function, body=ast.Block(
                    statements=(self._monitoring_prologue(function.line)
                                + function.body.statements),
                    line=function.body.line,
                ))
                break
        metadata = dict(module.metadata)
        if "signal_handlers" in metadata:
            metadata["signal_handlers"] = dict(metadata["signal_handlers"])
        module = ast.Module(globals=list(module.globals),
                            functions=functions,
                            source_name=module.source_name,
                            metadata=metadata)
        if self.register_segv_handler:
            self._add_segv_handler(module)
        module.metadata["logging_sites"] = list(self._sites)
        module.metadata["log_functions"] = sorted(self.log_functions)
        module.metadata["log_rings"] = self.rings
        return module

    def sites(self):
        """Return the logging sites created by the last transform."""
        return tuple(self._sites)

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _monitoring_prologue(self, line):
        """The Figure 7 sequence at the entry of ``main``."""
        statements = []
        if "lbr" in self.rings:
            statements.extend([
                ast.HwStatement(op="lbr_config",
                                imm=int(LBR_SELECT_PAPER_MASK),
                                broadcast=True, line=line),
                ast.HwStatement(op="lbr_reset", broadcast=True, line=line),
                ast.HwStatement(op="lbr_enable", broadcast=True, line=line),
            ])
        if "lcr" in self.rings:
            statements.extend([
                ast.HwStatement(op="lcr_config", imm=self.lcr_selector,
                                broadcast=True, line=line),
                ast.HwStatement(op="lcr_reset", broadcast=True, line=line),
                ast.HwStatement(op="lcr_enable", broadcast=True, line=line),
            ])
        return statements

    def _add_segv_handler(self, module):
        site = self._new_site(
            kind="segv-handler", function=SEGV_HANDLER_NAME, line=0,
            log_function="<SIGSEGV>",
        )
        handler = ast.FunctionDecl(
            name=SEGV_HANDLER_NAME,
            params=[],
            body=ast.Block(statements=[
                ast.ProfilePoint(site_id=site.site_id,
                                 site_kind="failure", rings=self.rings),
            ]),
        )
        module.functions.append(handler)
        handlers = module.metadata.setdefault("signal_handlers", {})
        handlers["SIGSEGV"] = SEGV_HANDLER_NAME
        # The same profiling handler serves the hang watchdog, so that
        # failures whose symptom is a hang (e.g. the paste bug) still
        # yield an LBR/LCR snapshot.
        handlers["HANG"] = SEGV_HANDLER_NAME

    def _new_site(self, kind, function, line, log_function="",
                  paired_failure_site=-1):
        site = LoggingSite(
            site_id=len(self._sites), kind=kind, function=function,
            line=line, log_function=log_function,
            paired_failure_site=paired_failure_site,
        )
        self._sites.append(site)
        return site

    # ------------------------------------------------------------------
    # Block rewriting
    # ------------------------------------------------------------------

    def _rewrite_block(self, function, block):
        """*block* itself if no statement in it is rewritten, else a new
        Block."""
        rewritten = []
        for statement in block.statements:
            rewritten.extend(self._rewrite_statement(function, statement))
        if len(rewritten) == len(block.statements) and all(
                map(operator.is_, rewritten, block.statements)):
            return block
        return ast.Block(statements=rewritten, line=block.line)

    def _rewrite_statement(self, function, statement):
        if isinstance(statement, ast.If):
            return self._rewrite_if(function, statement)
        if isinstance(statement, (ast.While, ast.For)):
            body = self._rewrite_block(function, statement.body)
            if body is not statement.body:
                statement = replace(statement, body=body)
            return [statement]
        result = []
        log_call = self._log_call_in(statement)
        if log_call is not None:
            site = self._new_site(
                kind="failure-log", function=function.name,
                line=statement.line, log_function=log_call.name,
            )
            result.append(ast.ProfilePoint(
                site_id=site.site_id, site_kind="failure",
                rings=self.rings, line=statement.line,
            ))
        result.append(statement)
        if self._wants_segv_success_site(function, statement):
            site = self._new_site(
                kind="success", function=function.name,
                line=statement.line, log_function="<SIGSEGV>",
            )
            result.append(ast.ProfilePoint(
                site_id=site.site_id, site_kind="success",
                rings=self.rings, line=statement.line,
            ))
        return result

    def _rewrite_if(self, function, statement):
        """Rewrite an if statement, applying the Figure 8 transformation
        when one of its arms directly contains a failure-logging call."""
        wants_success = self._wants_log_success_site(function, statement)
        then = self._rewrite_block(function, statement.then)
        orelse = statement.orelse
        if isinstance(orelse, ast.Block):
            orelse = self._rewrite_block(function, orelse)
        elif isinstance(orelse, ast.If):
            rewritten = self._rewrite_if(function, orelse)
            if len(rewritten) == 1:
                orelse = rewritten[0]
            else:
                orelse = ast.Block(statements=rewritten, line=orelse.line)
        if then is not statement.then or orelse is not statement.orelse:
            statement = replace(statement, then=then, orelse=orelse)
        if not wants_success:
            return [statement]
        # Figure 8: hoist the condition, profile, branch on the temp.
        self._temp_counter += 1
        temp = "__log_cond_%d" % self._temp_counter
        line = statement.line
        failure_site_id = self._first_failure_site_in(statement)
        site = self._new_site(
            kind="success", function=function.name, line=line,
            paired_failure_site=failure_site_id,
        )
        return [
            ast.LocalDecl(name=temp, line=line),
            ast.Assign(target=ast.Name(name=temp, line=line),
                       value=statement.cond, line=line),
            ast.ProfilePoint(site_id=site.site_id, site_kind="success",
                             rings=self.rings, line=line),
            replace(statement, cond=ast.Name(name=temp, line=line)),
        ]

    def _wants_log_success_site(self, function, statement):
        """Decide whether Figure 8 hoisting applies to *statement*."""
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
                    or not self._statement_matches_line(statement, target.line)):
                return False
        return True

    def _statement_matches_line(self, statement, line):
        """True if *line* is the if's own line or a logging call's line."""
        if statement.line == line:
            return True
        for arm in (statement.then, statement.orelse):
            if isinstance(arm, ast.Block):
                for inner in arm.statements:
                    if (self._log_call_in(inner) is not None
                            and inner.line == line):
                        return True
        return False

    def _wants_segv_success_site(self, function, statement):
        """Reactive success site right after a previously-faulting statement."""
        if self.success_scheme != "reactive":
            return False
        target = self.reactive_target
        return (target.kind == "segv"
                and target.function == function.name
                and statement.line == target.line)

    def _first_failure_site_in(self, statement):
        for site in self._sites:
            if site.kind == "failure-log":
                for arm in (statement.then, statement.orelse):
                    if isinstance(arm, ast.Block):
                        for inner in arm.statements:
                            if isinstance(inner, ast.ProfilePoint) \
                                    and inner.site_id == site.site_id:
                                return site.site_id
        return -1

    # ------------------------------------------------------------------
    # Log-call detection
    # ------------------------------------------------------------------

    def _log_call_in(self, statement):
        """Return the failure-logging Call in *statement*, or None.

        Only simple statements are inspected (calls in loop/if conditions
        are not considered logging sites).
        """
        expressions = []
        if isinstance(statement, ast.ExprStmt):
            expressions.append(statement.expr)
        elif isinstance(statement, ast.Assign):
            expressions.append(statement.value)
        elif isinstance(statement, ast.Return) and statement.value is not None:
            expressions.append(statement.value)
        elif isinstance(statement, ast.LocalDecl) and statement.init is not None:
            expressions.append(statement.init)
        for expression in expressions:
            for node in ast.walk_expressions(expression):
                if isinstance(node, ast.Call) \
                        and node.name in self.log_functions:
                    return node
        return None


def enhance_logging(module, log_functions=("error",), rings=("lbr", "lcr"),
                    lcr_selector=2, success_scheme="none",
                    reactive_target=None, register_segv_handler=True):
    """Convenience wrapper: transform *module* with a fresh LogEnhancer."""
    enhancer = LogEnhancer(
        log_functions=log_functions, rings=rings,
        lcr_selector=lcr_selector, success_scheme=success_scheme,
        reactive_target=reactive_target,
        register_segv_handler=register_segv_handler,
    )
    return enhancer.transform(module)
