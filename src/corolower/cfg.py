"""Control flow graphs of generator bodies.

Blocks hold statements that never leave the generator, a whole `if` or
`while` among them (see build_cfg); control transfers live in the
terminator (goto, two-way branch, yield, finish). Yields end their block
because they are exactly the points where the lowering must cut states.

The reserved id END (0) stands for "leave the function with a null
result": branch arms and plain yields' resume edges may point at it
directly. build_cfg lowers each statement list last first, in front of
the block it continues at, so every edge's target is known when the edge
is made, and an empty block is made only where an edge needs one: as the
entry of an empty body, as the resume target of a let-yield, whose block
binds the receiver, or as an empty endless loop. Block ids are dense,
entry = 1, and follow reverse postorder, which makes the fib example
number its blocks exactly like the published figure.

For the optimized lowering, build_cfg absorbs goto chains before
numbering, so that graph comes out merged. merge_blocks merges a split
graph: it folds literal branches, absorbs goto chains and renumbers. No
lowering runs it. Both producers of a merged graph check that it is
merged before they return it (_check_merged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import TransformError
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
    """Structural invariants: dense ids 1..n, entry = 1, no dangling edges
    or gotos to END, no yield or return inside a block's statements.
    Raises AssertionError, under `python -O` too."""
    ids = sorted(graph.blocks)
    if ids != list(range(1, len(ids) + 1)):
        raise AssertionError(f"non-dense block ids {ids}")
    if graph.entry != 1:
        raise AssertionError(f"entry is {graph.entry}, expected 1")
    for bid, block in graph.blocks.items():
        if block.id != bid:
            raise AssertionError(f"block {bid} has id {block.id}")
        for stmt in block.stmts:
            if stmt_exits(stmt):
                raise AssertionError(f"yield or return inside block {bid}: {stmt!r}")
        if block.terminator == Goto(END):
            raise AssertionError(f"goto {bid} -> END instead of a finish")
        for target in targets(block.terminator):
            if target != END and target not in graph.blocks:
                raise AssertionError(f"dangling edge {bid} -> {target}")


# -- construction -------------------------------------------------------------


class _Builder:
    def __init__(self, room: int | None):
        self.stmts: dict[int, list[Stmt]] = {}
        self.terms: dict[int, Terminator] = {}
        self._next = 1
        self.room = room  # the most nesting a whole if or while may have

    def close(self, tail: list[Stmt], term: Terminator, keep: bool = False) -> int:
        """The id of the open block (tail, term), tail last first. A block
        is made only when it has statements or keep is set; an empty goto
        is its target and an empty finish without a value is END."""
        if not tail and not keep:
            if type(term) is Goto:
                return term.target
            if type(term) is Finish and term.value is None:
                return END
        if type(term) is Goto and term.target == END:
            term = Finish(None)
        bid = self._next
        self._next += 1
        tail.reverse()
        self.stmts[bid] = tail
        self.terms[bid] = term
        return bid

    def lower(
        self, stmts: list[Stmt], tail: list[Stmt], term: Terminator
    ) -> tuple[list[Stmt], Terminator]:
        """Lower a statement list, last statement first, in front of the
        open block (tail, term) it continues at; returns the open block
        the list starts in. A return discards what follows it."""
        opt = self.room is not None
        for stmt in reversed(stmts):
            if isinstance(stmt, _STRAIGHT_LINE):
                tail.append(stmt)
            elif isinstance(stmt, (YieldStmt, LetYield)):
                # A let-yield's resume block binds the receiver on every
                # resumption, even one that only finishes (a closure may
                # read it later), and never on a jump into a successor.
                receiver = stmt.name if isinstance(stmt, LetYield) else None
                resume = self.close(tail, term, receiver is not None)
                tail, term = [], YieldTo(stmt.value, receiver, resume)
            elif isinstance(stmt, Return):
                tail, term = [], Finish(stmt.value)
            elif opt and isinstance(stmt, If) and isinstance(stmt.cond, BoolLit):
                arm = stmt.then if stmt.cond.value else stmt.orelse
                if arm is not None:  # only the arm that runs
                    tail, term = self.lower(arm.stmts, tail, term)
            elif opt and stmt.cond == BoolLit(False):
                pass  # a loop that never runs
            elif opt and stmt.cond != BoolLit(True) and not stmt_exits(stmt) and stmt_nesting(stmt) <= self.room:
                tail.append(stmt)  # whole; `while (true)` stays a loop of the graph
            elif isinstance(stmt, If):
                join = self.close(tail, term)
                then = self.close(*self.lower(stmt.then.stmts, [], Goto(join)))
                orelse = join
                if stmt.orelse is not None:
                    orelse = self.close(*self.lower(stmt.orelse.stmts, [], Goto(join)))
                tail, term = [], Branch(stmt.cond, then, orelse)
            elif isinstance(stmt, While):
                test = self._next  # ids above it are the body's blocks
                self._next += 1
                body = self.close(*self.lower(stmt.body.stmts, [], Goto(test)))
                if not (opt and stmt.cond == BoolLit(True)):
                    self.stmts[test] = []
                    self.terms[test] = Branch(stmt.cond, body, self.close(tail, term))
                elif body == test:  # an empty endless body loops on itself
                    self.stmts[test] = []
                    self.terms[test] = Goto(test)
                else:  # no test to run: the body's first block takes its place
                    m = lambda t: body if t == test else t
                    for bid in range(test + 1, self._next):
                        if bid in self.terms:
                            self.terms[bid] = _retarget(self.terms[bid], m)
                    test = body
                tail, term = [], Goto(test)
            else:
                raise AssertionError(f"unhandled statement {stmt!r}")
        return tail, term


def build_cfg(func: FuncDecl, opt: bool = False) -> Cfg:
    """Build the control flow graph of a validated generator body, each
    statement list last first in front of its successor, so that no empty
    block is made; drop unreachable blocks and renumber. With opt, build
    the graph the lowering uses: keep only what a literal test runs, let
    a `while (true)` body's first block stand for its test, keep an `if`
    or `while` without a yield or return whole where its nesting leaves
    room for the lowering's own (transform.LOWERED_DEPTH), and absorb goto
    chains as merge_blocks does, so the graph comes out merged, which is
    checked. Blocks cache both measures, so a deep nest is measured once,
    not at every level split."""
    if not func.is_generator:
        raise TransformError(f"{func.name!r} is not a generator")
    from .transform import LOWERED_DEPTH  # the lowering imports this module
    b = _Builder(MAX_NESTING - LOWERED_DEPTH if opt else None)
    entry = b.close(*b.lower(func.body.stmts, [], Finish(None)))
    if entry == END:  # a body that does nothing
        entry = b.close([], Finish(None), True)
    if opt:
        _absorb(b.stmts, b.terms, entry)
    graph = _renumber(b.stmts, b.terms, entry, func.body.declared)
    if opt:
        _check_merged(graph)
    return graph


def _renumber(
    stmts: dict[int, list[Stmt]],
    terms: dict[int, Terminator],
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
        succs = targets(term)
        if isinstance(term, Branch):
            succs = [term.orelse, term.then]
        for s in reversed(succs):
            if s != END and s not in seen:
                stack.append((s, False))
    order.reverse()
    mapping = {old: new for new, old in enumerate(order, start=1)}
    blocks: dict[int, BasicBlock] = {}
    for old, new in mapping.items():
        term = _retarget(terms[old], lambda t: mapping.get(t, t))
        blocks[new] = BasicBlock(new, stmts[old], term)
    graph = Cfg(blocks, 1, list(declared))
    check_cfg(graph)
    return graph


# -- merging ------------------------------------------------------------------


def pred_counts(terms: dict[int, Terminator], entry: int) -> dict[int, int]:
    """The predecessor count of every block reachable from the entry,
    counting only edges from such blocks: a block that a return or a
    folded branch cut off holds no other block back from being absorbed."""
    preds = {entry: 1}  # virtual edge: the entry is never absorbed
    stack = [entry]
    while stack:
        for target in targets(terms[stack.pop()]):
            if target != END:
                if target not in preds:
                    stack.append(target)
                preds[target] = preds.get(target, 0) + 1
    return preds


def _absorb(stmts: dict[int, list[Stmt]], terms: dict[int, Terminator], entry: int) -> None:
    """In one walk over the reachable blocks, let each block that ends in
    goto t, where t has no other reachable predecessor, absorb t for as
    long as that holds. Absorbing moves the victim's out-edges to the
    absorber, so no other block's predecessor count changes and the order
    of the walk does not matter. Every reachable block gets a new list of
    statements, so the lists passed in are not modified."""
    preds = pred_counts(terms, entry)
    for bid in preds:
        if bid not in terms:  # absorbed earlier in this walk
            continue
        run = [bid]
        term = terms[bid]
        while isinstance(term, Goto) and term.target != bid and preds[term.target] == 1:
            run.append(term.target)
            term = terms.pop(term.target)
        terms[bid] = term
        stmts[bid] = [stmt for victim in run for stmt in stmts[victim]]


def merge_blocks(graph: Cfg) -> Cfg:
    """Fold literal branches, absorb goto chains, renumber: (a) a branch
    on a literal true/false becomes a goto (or a finish when the surviving
    arm is END); then (b) a block ending in goto t, where t
    has no other reachable predecessor, absorbs t (_absorb). Absorbing
    makes no literal branch, so merging the result, or the optimized
    graph of build_cfg, changes nothing. An edge into an empty finish
    stays: build_cfg sends such edges to END. Diamond squashing is out of
    scope. Ids are reassigned densely in reverse postorder; the input is
    not modified."""
    check_cfg(graph)
    stmts = {bid: block.stmts for bid, block in graph.blocks.items()}
    terms: dict[int, Terminator] = {}
    for bid, block in graph.blocks.items():
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.cond, BoolLit):
            target = term.then if term.cond.value else term.orelse
            term = Finish(None) if target == END else Goto(target)
        terms[bid] = term
    _absorb(stmts, terms, graph.entry)
    merged = _renumber(stmts, terms, graph.entry, graph.declared)
    _check_merged(merged)
    return merged


def _check_merged(graph: Cfg) -> None:
    """What merging leaves: no branch on a literal, and no goto, a
    self-loop aside, into a block with no other reachable predecessor
    (_absorb would have absorbed that block). Raises AssertionError, like
    check_cfg."""
    terms = {bid: block.terminator for bid, block in graph.blocks.items()}
    preds = pred_counts(terms, graph.entry)
    for bid, term in terms.items():
        if isinstance(term, Branch) and isinstance(term.cond, BoolLit):
            raise AssertionError(f"block {bid} branches on a literal")
        if isinstance(term, Goto) and term.target != bid and preds[term.target] == 1:
            raise AssertionError(
                f"goto {bid} -> {term.target} into a block with no other predecessor"
            )


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
