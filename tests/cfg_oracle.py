"""The CFG oracle: a control flow graph run directly on the interpreter's
statement and expression tables, independently of the lowering.

eval_cfg walks a graph as a Python generator that follows the native
executor's protocol and resumes it through resume_sequence's loop
(interp.trace_instance). The tests compare its trace with the native
generator's, for the split and the optimized graph, before and after
merging: it is the differential reference showing that building and
merging preserve what a caller observes.
"""

from __future__ import annotations

from corolower.cfg import END, Branch, Cfg, Finish, Goto, YieldTo
from corolower.interp import (
    _EXPR,
    _STMT,
    DEFAULT_STEP_BUDGET,
    NULL,
    Env,
    GenInstance,
    Interpreter,
    _bool,
    trace_instance,
)
from corolower.syntax import Program


def yield_count(graph: Cfg) -> int:
    return sum(
        1 for b in graph.blocks.values() if isinstance(b.terminator, YieldTo)
    )


def eval_cfg(
    graph: Cfg,
    bindings: dict,
    resume_values,
    program: Program | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> list:
    """Run a graph as a generator resumed once per resume value and return
    what each resumption produces, in resume_sequence's shape and through
    its loop. bindings supplies the parameters, and the graph's declared
    locals start as null, as in a native call."""
    it = Interpreter(program if program is not None else Program([], entry=""), step_budget)
    env = Env(it.globals, dict.fromkeys(graph.declared, NULL) | bindings)
    return trace_instance(it, GenInstance(None, _walk(it, graph, env)), resume_values)


def _walk(it: Interpreter, graph: Cfg, env: Env):
    """The graph's body as a Python generator with `_exec_gen`'s protocol:
    it yields at a YieldTo, binding its receiver to the value sent back,
    and returns `(value,)` at a Finish with a value."""
    ip = graph.entry
    while ip != END:
        if it.steps > it.step_budget:  # a graph loops through its blocks
            raise it._exhausted()
        block = graph.blocks[ip]
        for stmt in block.stmts:
            _STMT[type(stmt)](it, stmt, env)
        term = block.terminator
        if isinstance(term, Goto):
            ip = term.target
        elif isinstance(term, Branch):
            cond = term.cond
            ip = term.then if _bool(_EXPR[type(cond)](it, cond, env), cond) else term.orelse
        elif isinstance(term, YieldTo):
            received = yield _EXPR[type(term.value)](it, term.value, env)
            if term.receiver is not None:
                env.vars[term.receiver] = received
            ip = term.resume
        elif isinstance(term, Finish):
            if term.value is None:
                return None
            return (_EXPR[type(term.value)](it, term.value, env),)
        else:
            raise AssertionError(f"unhandled terminator {term!r}")
