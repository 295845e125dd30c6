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

from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Optional, TypeVar


class Pos(NamedTuple):
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
    value = None  # not a field: read in place like an IntLit's


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

    @cached_property
    def declared(self) -> list[str]:
        """declared_locals of this block, computed on first use. Not a
        field, so equality, repr and the tree walks never see it, and a
        block that map_tree rebuilds starts without it."""
        return declared_locals(self)

    @cached_property
    def exits(self) -> bool:
        """Whether a statement here or in a block under one yields or
        returns, closure bodies aside. Computed from the blocks under its
        statements, which cache theirs, so measuring every block of a nest
        visits each statement once."""
        return any(map(stmt_exits, self.stmts))

    @cached_property
    def depth(self) -> int:
        """nesting(self), cached and computed like exits."""
        return 1 + max(map(stmt_nesting, self.stmts), default=0)


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
class Switch(Stmt):
    """`switch (e) case 1 { ... } case 2 { ... } else { ... }`: runs the
    case whose label equals the value of e, an integer and not a boolean,
    and `orelse` for any other value. Labels are distinct and
    non-negative, and there is at least one case."""

    subject: Expr
    cases: list[tuple[int, Block]]  # (label, block), like a record's fields
    orelse: Optional[Block] = None

    def __post_init__(self):
        # {label: block}, the jump table `_switch` takes a case from in one
        # lookup; a plain attribute like While.dispatch.
        self.table = dict(self.cases)


@dataclass
class While(Stmt):
    cond: Expr
    body: Block

    def __post_init__(self):
        # The jump table of a dispatch loop, a `while (true)` whose one
        # statement is a switch or an `s == k` chain on a selector s (see
        # _selector), and None for any other loop: `(name, field, table,
        # other)`. table maps each integer the switch or the chain selects
        # to its block and the steps charged on the way there, the first
        # test of a literal winning, and other is the same for any other
        # value. The chain goes on into an else that is one `if` on the same
        # selector. A plain attribute, not a field: the interpreter reads it
        # with one load, and equality, repr and the tree walks never see it.
        self.dispatch = None
        cond, stmts = self.cond, self.body.stmts
        if type(cond) is not BoolLit or cond.value is not True or len(stmts) != 1:
            return
        head, selector, table, steps = stmts[0], None, {}, 0
        if type(head) is Switch and (selector := _selector(head.subject)) is not None:
            steps, other = (2 if selector[1] is None else 3), head.orelse  # the switch, s
            table = {label: (block, steps) for label, block in head.cases}
        while type(head) is If:  # each test charges the if, ==, s and k
            test = head.cond
            is_test = type(test) is Binary and test.op == "==" and type(test.rhs) is IntLit
            tested = _selector(test.lhs) if is_test else None
            if tested is None or selector not in (None, tested):
                break
            selector, other = tested, head.orelse
            steps += 4 if tested[1] is None else 5
            table.setdefault(test.rhs.value, (head.then, steps))
            head = other.stmts[0] if other is not None and len(other.stmts) == 1 else None
        if selector is not None:
            self.dispatch = (*selector, table, (other, steps))


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

    @cached_property
    def identifiers(self) -> frozenset[str]:
        """identifiers of every declaration and the declared function names,
        cached like Block.declared for both lowerings."""
        return frozenset(_names(self))


# -- tree walks -------------------------------------------------------------
#
# One table (`_node_fields`) gives every traversal the fields of a node that
# can hold nodes, and `children` lists them. Every search of the tree is a
# `walk`: `_names` over every node, parser.validate stopping at fn literals
# (CLOSURES) and `declared_locals` at expressions (EXPRESSIONS). `nesting`
# carries a depth down the tree and `map_tree` rebuilds it bottom-up, which a
# walk does neither; `Block.exits` and `Block.depth` follow only the blocks
# under statements. `Block.declared` and `Program.identifiers` cache a body's
# locals and a program's names.


def walk(root: Node, stop: frozenset = frozenset()) -> Iterator[Node]:
    """Every node under root, root included, each once, in pre-order and
    source order: blocks, statements, expressions, record literal values
    and FuncLit bodies. A node whose class is in stop is visited but not
    entered. Iterative, so nesting depth costs no frames."""
    skip = LEAVES | stop
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if type(node) in skip:
            continue
        for name in reversed(_node_fields(type(node))):
            value = getattr(node, name)
            if type(value) is list:
                for item in reversed(value):
                    # a record literal's field or a switch's case is a pair
                    stack.append(item[1] if type(item) is tuple else item)
            elif value is not None:
                stack.append(value)


def nesting(root: Node) -> int:
    """An upper bound on the levels of nesting that the parser counts in
    root's printed text: one per block and at most two per expression, its
    own and a pair of parentheses around it. Iterative, like walk."""
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        depth += 1 if type(node) is Block else 2 if isinstance(node, Expr) else 0
        deepest = max(deepest, depth)
        stack.extend((child, depth) for child in children(node))
    return deepest


def stmt_nesting(stmt: Stmt) -> int:
    """nesting(stmt), from the cached depth of each block under it."""
    depths = (c.depth if type(c) is Block else nesting(c) for c in children(stmt))
    return max(depths, default=0)


def stmt_exits(stmt: Stmt) -> bool:
    """Whether a statement yields or returns, or holds one that does;
    closure bodies aside. From the cached exits of each block under it."""
    return type(stmt) in _EXITS or any(block.exits for block in blocks_under(stmt))


def children(node: Node) -> list[Node]:
    """The nodes directly under a node, in source order; a record
    literal's values stand for its fields, a switch's blocks for its
    cases."""
    out = []
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        if type(value) is list:
            out.extend([item[1] if type(item) is tuple else item for item in value])
        elif value is not None:
            out.append(value)
    return out


def blocks_under(stmt: Stmt) -> list[Block]:
    """The blocks directly under a statement: an if's arms, a switch's
    cases, a loop's body."""
    return [child for child in children(stmt) if type(child) is Block]


NodeT = TypeVar("NodeT", bound=Node)


def map_tree(node: NodeT, fn: Callable[[Node], Node]) -> NodeT:
    """Rebuild a tree bottom-up: map every child node first (in lists and
    record literal fields too, and through FuncLit bodies), then apply fn
    to the node. A changed node is rebuilt by calling its class with its
    fields, so it keeps its source position and no cached property; a
    subtree that nothing changes is returned as is."""
    if type(node) in LEAVES:
        return fn(node)
    changes = {}
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        if type(value) is list:
            new = value
            for i, item in enumerate(value):
                if type(item) is tuple:  # a field's (name, value), a case's (label, block)
                    inner = map_tree(item[1], fn)
                    mapped = item if inner is item[1] else (item[0], inner)
                else:
                    mapped = map_tree(item, fn)
                if mapped is not item:
                    if new is value:
                        new = list(value)
                    new[i] = mapped
        elif value is not None:
            new = map_tree(value, fn)
        else:
            continue
        if new is not value:
            changes[name] = new
    if changes:
        cls = type(node)
        args = [changes.get(name, getattr(node, name)) for name in _init_fields(cls)]
        node = cls(*args, pos=node.pos)
    return fn(node)


LEAVES = frozenset([IntLit, BoolLit, NullLit, Var, FuncRef])  # hold no node
CLOSURES = frozenset([FuncLit])
EXPRESSIONS = frozenset(Expr.__subclasses__())

# The annotations of the fields that never hold a node.
_LEAF_TYPES = frozenset(["str", "int", "bool", "list[str]"])


@cache
def _node_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "pos" and f.type not in _LEAF_TYPES)


@cache
def _init_fields(cls: type) -> tuple[str, ...]:
    """The fields that cls takes before its keyword-only pos, in order."""
    return tuple(f.name for f in fields(cls) if f.name != "pos")


def declared_locals(block: Block) -> list[str]:
    """Names bound by let/let-yield in this function body (first occurrence
    order), not descending into nested FuncLit bodies.

    Only statements bind names, so the walk does not enter expressions,
    which are most of a body's nodes: entering them made a short run of a
    large body up to 1.5 times slower. Not entering them keeps it out of
    fn literals too. `Block.declared` caches it for the interpreter, which
    pre-binds these names on every call."""
    names: dict[str, None] = {}
    for node in walk(block, EXPRESSIONS):
        if type(node) is Let or type(node) is LetYield:
            names.setdefault(node.name)
    return list(names)


_EXITS = frozenset([YieldStmt, LetYield, Return])  # they leave a generator
_NAMED = frozenset([FuncDecl, Let, Assign, LetYield, Var, FuncRef])


def _names(root: Node) -> set[str]:
    names = set()
    for node in walk(root):
        cls = type(node)  # a set lookup is faster than isinstance with a tuple
        if cls in _NAMED:
            names.add(node.name)
        if cls is FuncDecl or cls is FuncLit:
            names.update(node.params)
    return names


def identifiers(decl: FuncDecl) -> set[str]:
    """Every variable-like name occurring in a declaration (params, binding
    targets, variable references, function references). Field names live in
    their own namespace and are excluded."""
    return _names(decl.body) | set(decl.params)


# -- dispatch selectors -------------------------------------------------------


def _selector(expr: Expr) -> Optional[tuple[str, Optional[str]]]:
    """The (name, field) that a selector reads, field None for a Var, and
    None for any other expression. A selector is a Var or a field of a
    Var, as a state machine's `_i` and `_e._i` are."""
    if type(expr) is Var:
        return expr.name, None
    if type(expr) is FieldGet and type(expr.record) is Var:
        return expr.record.name, expr.field
    return None
