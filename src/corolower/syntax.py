"""Abstract syntax tree of the mini-language.

One grammar serves both sides of the pipeline: source programs use
generators (`fn*`, `yield`, `let x = yield e`, `next(e)`), while the
lowered and first-order outputs use anonymous functions, records, field
access/assignment and function references. Statement-position yield is a
deliberate restriction: yields delimit basic blocks, so they never occur
in expression position.

Node equality is structural; source positions never participate in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Callable, Iterator, Optional, TypeVar


@dataclass(frozen=True)
class Pos:
    line: int
    col: int


def _pos_field():
    return field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class Node:
    pos: Optional[Pos] = _pos_field()


class Expr(Node):
    """Marker base for expressions."""


class Stmt(Node):
    """Marker base for statements."""


# -- expressions ------------------------------------------------------------


@dataclass
class IntLit(Expr):
    value: int  # 0 .. 2^63-1; negative constants are Unary("-", ...)


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Var(Expr):
    name: str


@dataclass
class Binary(Expr):
    op: str  # one of + - * / % == != < <= > >= && ||
    lhs: Expr
    rhs: Expr


@dataclass
class Unary(Expr):
    op: str  # one of - !
    operand: Expr


@dataclass
class Call(Expr):
    callee: Expr
    args: list[Expr]


@dataclass
class NextCall(Expr):
    """`next(e)` / `next(e, v)` — the only resumption form."""

    gen: Expr
    arg: Optional[Expr] = None


@dataclass
class FieldGet(Expr):
    record: Expr
    field: str


@dataclass
class RecordLit(Expr):
    fields: list[tuple[str, Expr]]  # ordered; duplicate keys rejected at parse


@dataclass
class FuncRef(Expr):
    """`&name` — late-bound reference to a top-level function."""

    name: str


@dataclass
class FuncLit(Expr):
    """Anonymous `fn (params) { ... }`; arises as transformation output."""

    params: list[str]
    body: "Block"


# -- statements -------------------------------------------------------------


@dataclass
class Block(Node):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class Let(Stmt):
    name: str
    value: Expr


@dataclass
class Assign(Stmt):
    name: str
    value: Expr


@dataclass
class LetYield(Stmt):
    """`let x = yield e` — yield e, then bind the resume value to x."""

    name: str
    value: Expr


@dataclass
class YieldStmt(Stmt):
    value: Expr


@dataclass
class FieldSet(Stmt):
    """`e.field = v`; exists for the defunctionalized output language."""

    record: Expr
    field: str
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Block
    orelse: Optional[Block] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Print(Stmt):
    value: Expr


@dataclass
class ExprStmt(Stmt):
    value: Expr


# -- declarations -----------------------------------------------------------


@dataclass
class FuncDecl(Node):
    name: str
    params: list[str]
    is_generator: bool
    body: Block


@dataclass
class Program(Node):
    decls: list[FuncDecl]
    entry: str = "main"


def decl_map(program: Program) -> dict[str, FuncDecl]:
    return {d.name: d for d in program.decls}


# -- tree walks -------------------------------------------------------------


def stmt_blocks(stmt: Stmt) -> list[Block]:
    """Nested blocks directly under a statement (not through expressions)."""
    if isinstance(stmt, If):
        return [stmt.then] + ([stmt.orelse] if stmt.orelse is not None else [])
    if isinstance(stmt, While):
        return [stmt.body]
    return []


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """Expressions directly under a statement."""
    if isinstance(stmt, (Let, Assign, LetYield, YieldStmt, Print, ExprStmt)):
        return [stmt.value]
    if isinstance(stmt, FieldSet):
        return [stmt.record, stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    return []


def sub_exprs(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Call):
        return [expr.callee] + expr.args
    if isinstance(expr, NextCall):
        return [expr.gen] + ([expr.arg] if expr.arg is not None else [])
    if isinstance(expr, FieldGet):
        return [expr.record]
    if isinstance(expr, RecordLit):
        return [e for _, e in expr.fields]
    return []


def iter_stmts(block: Block, into_functions: bool = False) -> Iterator[Stmt]:
    """All statements in a block, depth-first through nested blocks.

    With into_functions, also descends into FuncLit bodies reached
    through expressions.
    """
    for stmt in block.stmts:
        yield stmt
        for sub in stmt_blocks(stmt):
            yield from iter_stmts(sub, into_functions)
        if into_functions:
            for expr in stmt_exprs(stmt):
                for e in iter_exprs(expr):
                    if isinstance(e, FuncLit):
                        yield from iter_stmts(e.body, into_functions)


NodeT = TypeVar("NodeT", bound=Node)


def map_tree(node: NodeT, fn: Callable[[Node], Node]) -> NodeT:
    """Rebuild a tree bottom-up: map every child node first (in lists and
    record literal fields too, and through FuncLit bodies), then apply fn
    to the node. A rebuilt node keeps its source position, and a subtree
    that nothing changes is returned as is."""
    changes = {}
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            new = map_tree(value, fn)
        elif isinstance(value, list):
            new = value
            for i, item in enumerate(value):
                if isinstance(item, Node):
                    mapped = map_tree(item, fn)
                elif isinstance(item, tuple):  # a record literal's (name, value)
                    inner = map_tree(item[1], fn)
                    mapped = item if inner is item[1] else (item[0], inner)
                else:
                    continue
                if mapped is not item:
                    if new is value:
                        new = list(value)
                    new[i] = mapped
        else:
            continue
        if new is not value:
            changes[name] = new
    if changes:
        node = replace(node, **changes)
    return fn(node)


@cache
def _child_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "pos")


def iter_exprs(root: Expr) -> Iterator[Expr]:
    """An expression and all its sub-expressions (FuncLit bodies excluded)."""
    stack = [root]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(sub_exprs(e))


def block_exprs(block: Block) -> Iterator[Expr]:
    """All expressions under a block, including inside FuncLit bodies,
    each once: iter_stmts already reaches the statements of those bodies."""
    for stmt in iter_stmts(block, into_functions=True):
        for expr in stmt_exprs(stmt):
            yield from iter_exprs(expr)


def declared_locals(block: Block) -> list[str]:
    """Names bound by let/let-yield in this function body (first occurrence
    order), not descending into nested FuncLit bodies."""
    seen: list[str] = []
    for stmt in iter_stmts(block):
        if isinstance(stmt, (Let, LetYield)) and stmt.name not in seen:
            seen.append(stmt.name)
    return seen


def identifiers(decl: FuncDecl) -> set[str]:
    """Every variable-like name occurring in a declaration (params, binding
    targets, variable references, function references). Field names live in
    their own namespace and are excluded."""
    names = set(decl.params)
    for stmt in iter_stmts(decl.body, into_functions=True):
        if isinstance(stmt, (Let, Assign, LetYield)):
            names.add(stmt.name)
    for expr in block_exprs(decl.body):
        if isinstance(expr, Var):
            names.add(expr.name)
        elif isinstance(expr, FuncRef):
            names.add(expr.name)
        elif isinstance(expr, FuncLit):
            names.update(expr.params)
    return names


def program_identifiers(program: Program) -> set[str]:
    names = {d.name for d in program.decls}
    for d in program.decls:
        names |= identifiers(d)
    return names


def has_yield(block: Block) -> bool:
    return any(
        isinstance(s, (YieldStmt, LetYield))
        for s in iter_stmts(block, into_functions=True)
    )


def contains_funclit(program: Program) -> bool:
    return any(
        isinstance(e, FuncLit) for d in program.decls for e in block_exprs(d.body)
    )
