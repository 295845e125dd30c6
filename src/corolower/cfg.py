"""Control flow graphs of generator bodies.

Blocks hold statements that never leave the generator, a whole `if` or
`while` among them (see build_cfg); control transfers live in the
terminator (goto, two-way branch, yield, finish). Yields end their block
because they are exactly the points where the lowering must cut states.

The reserved id END (0) stands for "leave the function with a null
result": branch arms and plain yields' resume edges may point at it
directly. An empty Finish block is materialized only where an edge
needs a real block: as the entry of an empty body or as the resume
target of a let-yield, whose block binds the receiver. Block ids are
dense, entry = 1, and follow reverse postorder, which makes the fib
example number its blocks exactly like the published figure.

build_cfg routes edges past empty blocks in one sweep over the
terminators, and merge_blocks folds literal branches in one walk and
absorbs goto chains in another. eval_cfg runs a graph directly on the
interpreter's statement and expression tables, independently of the
lowering: it walks the graph as a Python generator that follows the
native executor's protocol and resumes it through resume_sequence's
loop. It is the oracle showing that merging preserves what a caller
observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import TransformError
from .interp import (
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
from .parser import MAX_NESTING
from .printer import expr_source, stmt_lines
from .syntax import (
    Assign,
    BoolLit,
    Expr,
    ExprStmt,
    FieldSet,
    FuncDecl,
    If,
    Let,
    LetYield,
    Print,
    Program,
    Return,
    Stmt,
    While,
    YieldStmt,
    stmt_exits,
    stmt_nesting,
)

END = 0


@dataclass
class Goto:
    target: int


@dataclass
class Branch:
    cond: Expr
    then: int
    orelse: int


@dataclass
class YieldTo:
    value: Expr
    receiver: Optional[str]  # present iff the source statement was let-yield
    resume: int


@dataclass
class Finish:
    value: Optional[Expr] = None


Terminator = Union[Goto, Branch, YieldTo, Finish]


@dataclass
class BasicBlock:
    id: int
    stmts: list[Stmt]
    terminator: Terminator


@dataclass
class Cfg:
    blocks: dict[int, BasicBlock]
    entry: int
    # The body's declared locals, kept because a `let` can be dropped as dead.
    declared: list[str] = field(default_factory=list)


_STRAIGHT_LINE = (Let, Assign, ExprStmt, Print, FieldSet)


def targets(term: Terminator) -> list[int]:
    if isinstance(term, Goto):
        return [term.target]
    if isinstance(term, Branch):
        return [term.then, term.orelse]
    if isinstance(term, YieldTo):
        return [term.resume]
    return []


def _retarget(term: Terminator, m: Callable[[int], int]) -> Terminator:
    if isinstance(term, Goto):
        return Goto(m(term.target))
    if isinstance(term, Branch):
        return Branch(term.cond, m(term.then), m(term.orelse))
    if isinstance(term, YieldTo):
        return YieldTo(term.value, term.receiver, m(term.resume))
    return term


def check_cfg(graph: Cfg) -> None:
    """Structural invariants: dense ids 1..n, entry = 1, no dangling edges,
    no yield or return inside a block's statements."""
    ids = sorted(graph.blocks)
    assert ids == list(range(1, len(ids) + 1)), f"non-dense block ids {ids}"
    assert graph.entry == 1, f"entry is {graph.entry}, expected 1"
    for bid, block in graph.blocks.items():
        assert block.id == bid
        for stmt in block.stmts:
            assert not stmt_exits(stmt), f"yield or return inside block {bid}: {stmt!r}"
        for target in targets(block.terminator):
            assert target == END or target in graph.blocks, (
                f"dangling edge {bid} -> {target}"
            )


# -- construction -------------------------------------------------------------


class _Builder:
    def __init__(self, room: int | None):
        self.stmts: dict[int, list[Stmt]] = {}
        self.terms: dict[int, Terminator | None] = {}
        self._next = 1
        self.room = room  # the most nesting a whole if or while may have

    def fresh(self) -> int:
        bid = self._next
        self._next += 1
        self.stmts[bid] = []
        self.terms[bid] = None
        return bid

    def lower(self, stmts: list[Stmt], cur: int) -> int | None:
        """Lower a statement list into blocks starting at cur; returns the
        open continuation block, or None when every path returned.
        Statements after a return are unreachable and dropped."""
        opt = self.room is not None
        for stmt in stmts:
            if cur is None:
                break
            if isinstance(stmt, _STRAIGHT_LINE):
                self.stmts[cur].append(stmt)
            elif isinstance(stmt, (YieldStmt, LetYield)):
                receiver = stmt.name if isinstance(stmt, LetYield) else None
                resume = self.fresh()
                self.terms[cur] = YieldTo(stmt.value, receiver, resume)
                cur = resume
            elif isinstance(stmt, Return):
                self.terms[cur] = Finish(stmt.value)
                cur = None
            elif opt and isinstance(stmt, If) and isinstance(stmt.cond, BoolLit):
                arm = stmt.then if stmt.cond.value else stmt.orelse
                if arm is not None:  # only the arm that runs
                    cur = self.lower(arm.stmts, cur)
            elif opt and stmt.cond == BoolLit(False):
                pass  # a loop that never runs
            elif opt and stmt.cond != BoolLit(True) and not stmt_exits(stmt) and stmt_nesting(stmt) <= self.room:
                self.stmts[cur].append(stmt)  # whole; `while (true)` stays a loop of the graph
            elif isinstance(stmt, If):
                join = self.fresh()
                then_entry = self.fresh()
                if stmt.orelse is not None:
                    else_entry = self.fresh()
                    self.terms[cur] = Branch(stmt.cond, then_entry, else_entry)
                    else_end = self.lower(stmt.orelse.stmts, else_entry)
                    if else_end is not None:
                        self.terms[else_end] = Goto(join)
                else:
                    self.terms[cur] = Branch(stmt.cond, then_entry, join)
                then_end = self.lower(stmt.then.stmts, then_entry)
                if then_end is not None:
                    self.terms[then_end] = Goto(join)
                cur = join
            elif isinstance(stmt, While):
                test = self.fresh()
                body_entry = self.fresh()
                after = self.fresh()
                self.terms[cur] = Goto(test)
                if opt and stmt.cond == BoolLit(True):  # no test to run
                    self.terms[test] = Goto(body_entry)
                else:
                    self.terms[test] = Branch(stmt.cond, body_entry, after)
                body_end = self.lower(stmt.body.stmts, body_entry)
                if body_end is not None:
                    self.terms[body_end] = Goto(test)
                cur = after
            else:
                raise AssertionError(f"unhandled statement {stmt!r}")
        return cur


def build_cfg(func: FuncDecl, opt: bool = False) -> Cfg:
    """Build the control flow graph of a validated generator body, route
    edges past empty blocks, drop unreachable blocks and renumber. With
    opt, keep only what a literal test runs, make a `while (true)` test a
    goto, and keep an `if` or `while` without a yield or return whole
    where its nesting leaves room for the lowering's own
    (transform.LOWERED_DEPTH); blocks cache both measures, so a deep nest
    is measured once, not at every level split."""
    if not func.is_generator:
        raise TransformError(f"{func.name!r} is not a generator")
    from .transform import LOWERED_DEPTH  # the lowering imports this module
    b = _Builder(MAX_NESTING - LOWERED_DEPTH if opt else None)
    entry = b.fresh()
    open_block = b.lower(func.body.stmts, entry)
    if open_block is not None:
        b.terms[open_block] = Finish(None)
    entry = _bypass_empty_blocks(b, entry)
    return _renumber(b.stmts, b.terms, entry, func.body.declared)


def _bypass_empty_blocks(b: _Builder, entry: int) -> int:
    """Route every edge past empty blocks and return the new entry;
    _renumber drops the blocks this leaves unreachable. An empty goto block
    forwards to its target. An edge into an empty Finish(absent) block
    leaves the function instead: a branch arm or a yield's resume edge
    points at END, and a goto becomes the finish. Two kinds of block stay:
    the entry, and the resume block of a receiver-carrying yield, because
    the receiver binding must run on a fresh resumption, even one that
    only finishes (a closure may read the receiver later), and never on
    a same-call jump into a shared successor."""
    receivers = {
        t.resume
        for t in b.terms.values()
        if isinstance(t, YieldTo) and t.receiver is not None
    }
    forward = {
        bid: t.target
        for bid, t in b.terms.items()
        if isinstance(t, Goto) and not b.stmts[bid] and bid not in receivers
    }

    def through(target: int) -> int:
        chain = []
        while target in forward and target not in chain:  # stop on a cycle
            chain.append(target)
            target = forward[target]
        for bid in chain:
            forward[bid] = target
        return target

    for bid, term in b.terms.items():
        b.terms[bid] = _retarget(term, through)
    entry = through(entry)

    finishes = {
        bid
        for bid, t in b.terms.items()
        if isinstance(t, Finish)
        and t.value is None
        and not b.stmts[bid]
        and bid != entry
        and bid not in receivers
    }

    def past(target: int) -> int:
        return END if target in finishes else target

    for bid, term in b.terms.items():
        if isinstance(term, Goto) and term.target in finishes:
            b.terms[bid] = Finish(None)
        else:
            b.terms[bid] = _retarget(term, past)
    return entry


def _renumber(
    stmts: dict[int, list[Stmt]],
    terms: dict[int, Terminator | None],
    entry: int,
    declared: list[str],
) -> Cfg:
    """Drop unreachable blocks and assign dense reverse-postorder ids with
    entry = 1. Branch successors are walked else-first, which numbers the
    then-arm before the else-arm in the result."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(entry, False)]
    while stack:
        bid, expanded = stack.pop()
        if expanded:
            order.append(bid)
            continue
        if bid in seen or bid == END:
            continue
        seen.add(bid)
        stack.append((bid, True))
        term = terms[bid]
        succs = targets(term) if term is not None else []
        if isinstance(term, Branch):
            succs = [term.orelse, term.then]
        for s in reversed(succs):
            if s != END and s not in seen:
                stack.append((s, False))
    order.reverse()
    mapping = {old: new for new, old in enumerate(order, start=1)}
    blocks: dict[int, BasicBlock] = {}
    for old, new in mapping.items():
        term = terms[old]
        assert term is not None, f"block {old} has no terminator"
        term = _retarget(term, lambda t: mapping.get(t, t))
        blocks[new] = BasicBlock(new, list(stmts[old]), term)
    graph = Cfg(blocks, 1, list(declared))
    check_cfg(graph)
    return graph


# -- merging ------------------------------------------------------------------


def pred_counts(blocks: dict[int, BasicBlock], entry: int) -> dict[int, int]:
    """The predecessor count of every block reachable from the entry,
    counting only edges from such blocks: a block that a folded branch
    cut off holds no other block back from being absorbed."""
    preds = {entry: 1}  # virtual edge: the entry is never absorbed
    stack = [entry]
    while stack:
        for target in targets(blocks[stack.pop()].terminator):
            if target != END:
                if target not in preds:
                    stack.append(target)
                preds[target] = preds.get(target, 0) + 1
    return preds


def merge_blocks(graph: Cfg) -> Cfg:
    """Simplify in one pass: (a) a branch on a literal true/false becomes
    a goto (or a finish when the surviving arm is the end sentinel); then
    (b) a block ending in goto t, where t has no other reachable
    predecessor, absorbs t, in one walk over the reachable blocks in id
    order, each absorbing for as long as (b) holds. Absorbing makes no
    literal branch, so merging the result changes nothing. Edges into
    empty finishes are build_cfg's to route. Diamond squashing is out of
    scope. Ids are reassigned densely in reverse postorder; the input is
    not modified."""
    blocks = {
        bid: BasicBlock(bid, list(b.stmts), b.terminator)
        for bid, b in graph.blocks.items()
    }
    entry = graph.entry
    for block in blocks.values():
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.cond, BoolLit):
            target = term.then if term.cond.value else term.orelse
            block.terminator = Finish(None) if target == END else Goto(target)
    preds = pred_counts(blocks, entry)
    # Absorbing moves the victim's out-edges to the absorber, so no other
    # block's predecessor count changes and one walk suffices.
    for bid in sorted(preds):
        if bid not in blocks:  # absorbed earlier in this walk
            continue
        block = blocks[bid]
        while (
            isinstance(block.terminator, Goto)
            and block.terminator.target != bid
            and preds[block.terminator.target] == 1
        ):
            victim = blocks.pop(block.terminator.target)
            block.stmts += victim.stmts
            block.terminator = victim.terminator
    stmts = {bid: b.stmts for bid, b in blocks.items()}
    terms = {bid: b.terminator for bid, b in blocks.items()}
    return _renumber(stmts, terms, entry, graph.declared)


def yield_count(graph: Cfg) -> int:
    return sum(
        1 for b in graph.blocks.values() if isinstance(b.terminator, YieldTo)
    )


# -- direct execution ---------------------------------------------------------


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


# -- rendering ----------------------------------------------------------------


def emit_dot(graph: Cfg, name: str = "cfg") -> str:
    """Graphviz rendering in the style of the paper's figure: boxes for
    statement blocks, circles for pure branch nodes, yes/no labels on
    branch edges, dashed edges labeled with the yielded expression, and
    distinguished start/end nodes."""
    lines = [f"digraph {name} {{"]
    lines.append('  start [shape=oval, style=filled, fillcolor=palegreen];')
    lines.append('  end [shape=oval, style=filled, fillcolor=lightcoral];')
    for bid in sorted(graph.blocks):
        block = graph.blocks[bid]
        if not block.stmts and isinstance(block.terminator, Branch):
            label = _escape(expr_source(block.terminator.cond))
            lines.append(f'  bb{bid} [shape=circle, xlabel="bb{bid}", label="{label}"];')
        else:
            body = "\\l".join(
                _escape(line) for stmt in block.stmts for line in stmt_lines(stmt)
            )
            label = body + "\\l" if body else f"bb{bid}"
            lines.append(f'  bb{bid} [shape=box, xlabel="bb{bid}", label="{label}"];')
    lines.append(f"  start -> bb{graph.entry};")
    for bid in sorted(graph.blocks):
        term = graph.blocks[bid].terminator
        if isinstance(term, Goto):
            lines.append(f"  bb{bid} -> {_node(term.target)};")
        elif isinstance(term, Branch):
            lines.append(f'  bb{bid} -> {_node(term.then)} [label="yes"];')
            lines.append(f'  bb{bid} -> {_node(term.orelse)} [label="no"];')
        elif isinstance(term, YieldTo):
            label = _escape(f"yield {expr_source(term.value)}")
            lines.append(
                f'  bb{bid} -> {_node(term.resume)} [style=dashed, label="{label}"];'
            )
        elif isinstance(term, Finish):
            if term.value is not None:
                label = _escape(expr_source(term.value))
                lines.append(f'  bb{bid} -> end [label="{label}"];')
            else:
                lines.append(f"  bb{bid} -> end;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node(target: int) -> str:
    return "end" if target == END else f"bb{target}"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
