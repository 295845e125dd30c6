"""First-order output: closures replaced by environment records plus
lifted top-level functions, applied through one global dispatcher.

Each state-machine factory F becomes (a) a lifted `F_fo(env, r)` holding
the dispatch loop with every captured variable rewritten to a field of
env, and (b) a constructor returning `{ env: {...}, fn: &F_fo }`. A
single `apply(c, r)` performs `c.fn(c.env, r)`, and every `next(g, v)`
call site anywhere in the program becomes `apply(g, v)`. The result
contains no anonymous functions at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DefuncError
from .syntax import (
    Assign,
    Block,
    Call,
    Expr,
    FieldGet,
    FieldSet,
    FuncDecl,
    FuncLit,
    FuncRef,
    IntLit,
    Let,
    NextCall,
    Node,
    NullLit,
    Program,
    RecordLit,
    Return,
    Var,
    map_tree,
    program_identifiers,
)
from .transform import NameAllocator


@dataclass
class LiftedClosure:
    """Record-and-function pair a factory's closure turns into."""

    env_fields: list[str]  # inst var, then params, then hoisted locals
    lifted_fn: str
    ctor_fn: str


@dataclass
class _FactoryShape:
    inst_var: str
    params: list[str]
    hoisted: list[str]
    resume_param: str
    machine_body: Block


def match_factory(decl: FuncDecl) -> _FactoryShape | None:
    """Recognize the exact shape transform emits: `let inst = 1`, a null
    `let` per hoisted local, then `return fn (r) { ... }`."""
    stmts = decl.body.stmts
    if not stmts or not isinstance(stmts[-1], Return):
        return None
    ret = stmts[-1]
    if not isinstance(ret.value, FuncLit) or len(ret.value.params) != 1:
        return None
    lets = stmts[:-1]
    if not lets or not all(isinstance(s, Let) for s in lets):
        return None
    first = lets[0]
    if not (isinstance(first.value, IntLit) and first.value.value == 1):
        return None
    hoisted = []
    for s in lets[1:]:
        if not isinstance(s.value, NullLit):
            return None
        hoisted.append(s.name)
    return _FactoryShape(
        inst_var=first.name,
        params=list(decl.params),
        hoisted=hoisted,
        resume_param=ret.value.params[0],
        machine_body=ret.value.body,
    )


def defunctionalize(program: Program) -> Program:
    """Eliminate every closure from a lowered program. Raises DefuncError
    on generators or on anonymous functions that are not state machines."""
    for decl in program.decls:
        if decl.is_generator:
            raise DefuncError(f"program still contains generator {decl.name!r}")
    names = NameAllocator(program_identifiers(program))
    apply_name = names.fresh("apply")
    global_names = {d.name for d in program.decls}

    decls: list[FuncDecl] = []
    lifted: list[LiftedClosure] = []
    for decl in program.decls:
        shape = match_factory(decl)
        if shape is None:
            decls.append(decl)
            continue
        fo_name = names.fresh(f"{decl.name}_fo")
        env_param = names.fresh("_e")
        env_fields = [shape.inst_var] + shape.params + shape.hoisted
        bound = global_names | {shape.resume_param}
        to_env = _to_env(decl.name, env_param, set(env_fields), bound)
        machine = map_tree(shape.machine_body, to_env)
        decls.append(FuncDecl(fo_name, [env_param, shape.resume_param], False, machine))
        env_init: list[tuple[str, Expr]] = [(shape.inst_var, IntLit(1))]
        env_init += [(p, Var(p)) for p in shape.params]
        env_init += [(h, NullLit()) for h in shape.hoisted]
        ctor_body = Block(
            [
                Return(
                    RecordLit(
                        [("env", RecordLit(env_init)), ("fn", FuncRef(fo_name))]
                    )
                )
            ]
        )
        decls.append(FuncDecl(decl.name, list(decl.params), False, ctor_body))
        lifted.append(LiftedClosure(env_fields, fo_name, decl.name))

    first_order = [map_tree(d, _to_apply(d.name, apply_name)) for d in decls]
    # map_tree returns a declaration unchanged unless it rewrote a next.
    rewrote_next = any(new is not old for new, old in zip(first_order, decls))
    if lifted or rewrote_next:
        first_order.insert(0, _apply_decl(apply_name))
    return Program(first_order, program.entry)


def _apply_decl(name: str) -> FuncDecl:
    # fn apply(c, r) { return c.fn(c.env, r) }
    body = Block(
        [
            Return(
                Call(
                    FieldGet(Var("c"), "fn"),
                    [FieldGet(Var("c"), "env"), Var("r")],
                )
            )
        ]
    )
    return FuncDecl(name, ["c", "r"], False, body)


# -- node rewrites for map_tree ---------------------------------------------


def _to_env(name: str, env: str, captured: set[str], bound: set[str]):
    """Captured variables become fields of the environment record; any
    other variable must be bound without it."""

    def rewrite(node: Node) -> Node:
        if isinstance(node, Var):
            if node.name in captured:
                return FieldGet(Var(env), node.name, pos=node.pos)
            if node.name not in bound:
                raise DefuncError(
                    f"{name!r}: machine body references {node.name!r}, "
                    "which is neither captured nor global"
                )
        if isinstance(node, Assign) and node.name in captured:
            return FieldSet(Var(env), node.name, node.value, pos=node.pos)
        if isinstance(node, FuncLit):
            raise DefuncError("nested closure inside a machine body")
        return node

    return rewrite


def _to_apply(name: str, apply_name: str):
    """`next(g, v)` becomes `apply(g, v)`, a missing v null; no closure
    may remain."""

    def rewrite(node: Node) -> Node:
        if isinstance(node, NextCall):
            arg = node.arg if node.arg is not None else NullLit()
            return Call(Var(apply_name), [node.gen, arg], pos=node.pos)
        if isinstance(node, FuncLit):
            raise DefuncError(
                f"{name!r} contains a closure that is not a state machine"
            )
        return node

    return rewrite
