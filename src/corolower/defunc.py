"""First-order output: closures replaced by environment records plus
lifted top-level functions, applied through one global dispatcher.

Each state-machine factory F becomes (a) a lifted `F_fo(env, r)` holding
the machine with every captured variable rewritten to a field of env,
and (b) a constructor returning `{ env: {...}, fn: &F_fo }`. A single
`apply(c, r)` performs `c.fn(c.env, r)`, and every `next(g, v)` call
site anywhere in the program becomes `apply(g, v)`. The result contains
no anonymous functions at all.

The lifted machine takes one map_tree rewrite (`_lift`) that moves
captured variables into the environment and makes `next` `apply`; it
reports the first name fault it met. The declarations not lifted are
rewritten after every factory, so a lifting fault wins over a stray
closure.
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
)
from .transform import NameAllocator


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
    if not (
        lets
        and all(isinstance(s, Let) for s in lets)
        and lets[0].value == IntLit(1)
        and all(isinstance(s.value, NullLit) for s in lets[1:])
    ):
        return None
    shape = _FactoryShape(
        inst_var=lets[0].name,
        params=list(decl.params),
        hoisted=[s.name for s in lets[1:]],
        resume_param=ret.value.params[0],
        machine_body=ret.value.body,
    )
    # Every name the environment record holds is bound once, and the
    # machine's parameter shadows none.
    bound = [s.name for s in lets] + shape.params
    if len(set(bound)) != len(bound) or shape.resume_param in bound:
        return None
    return shape


def defunctionalize(program: Program) -> Program:
    """Eliminate every closure from a lowered program. Raises DefuncError
    on generators or on anonymous functions that are not state machines."""
    for decl in program.decls:
        if decl.is_generator:
            raise DefuncError(f"program still contains generator {decl.name!r}")
    names = NameAllocator(program.identifiers)
    apply_name = names.fresh("apply")
    global_names = {d.name for d in program.decls}

    decls: list[FuncDecl] = []
    plain: list[int] = []  # where decls holds a declaration not lifted
    lifted_any = False
    for decl in program.decls:
        shape = match_factory(decl)
        if shape is None:
            plain.append(len(decls))
            decls.append(decl)
            continue
        lifted_any = True
        fo_name = names.fresh(f"{decl.name}_fo")
        env_param = names.fresh("_e")
        captured = {shape.inst_var, *shape.params, *shape.hoisted}
        bound = global_names | {shape.resume_param}
        body = _lift(decl.name, shape.machine_body, env_param, captured, bound, apply_name)
        decls.append(FuncDecl(fo_name, [env_param, shape.resume_param], False, body))
        env_init: list[tuple[str, Expr]] = [(shape.inst_var, IntLit(1))]
        env_init += [(p, Var(p)) for p in shape.params]
        env_init += [(h, NullLit()) for h in shape.hoisted]
        ctor = RecordLit([("env", RecordLit(env_init)), ("fn", FuncRef(fo_name))])
        ctor_body = Block([Return(ctor)])
        decls.append(FuncDecl(decl.name, list(decl.params), False, ctor_body))

    # A lifted body had its nexts rewritten with its environment; the rest
    # are rewritten once every factory is lifted, so a lifting error wins.
    rewrote_next = False
    for i in plain:
        new = map_tree(decls[i], _to_apply(decls[i].name, apply_name))
        # map_tree returns a declaration unchanged unless it rewrote a next.
        rewrote_next |= new is not decls[i]
        decls[i] = new
    if lifted_any or rewrote_next:
        decls.insert(0, _apply_decl(apply_name))
    return Program(decls, program.entry)


def _apply_decl(name: str) -> FuncDecl:
    # fn apply(c, r) { return c.fn(c.env, r) }
    call = Call(FieldGet(Var("c"), "fn"), [FieldGet(Var("c"), "env"), Var("r")])
    return FuncDecl(name, ["c", "r"], False, Block([Return(call)]))


# -- node rewrites for map_tree ---------------------------------------------


def _lift(
    name: str,
    body: Block,
    env: str,
    captured: set[str],
    bound: set[str],
    apply_name: str,
) -> Block:
    """A machine body lifted to the top level by one map_tree rewrite: a
    captured variable becomes a field of the environment record, and
    `next(g, v)` `apply(g, v)`. Any other variable must be bound without
    them, and a `let` of a captured name, which would shadow it in the
    machine but not in the lifted body, is refused. The first fault is
    raised once the rewrite ends."""
    fault: DefuncError | None = None

    def rewrite(node: Node) -> Node:
        nonlocal fault
        cls = type(node)
        if cls is Var:
            if node.name in captured:
                return FieldGet(Var(env), node.name, pos=node.pos)
            if node.name not in bound and fault is None:
                fault = DefuncError(
                    f"{name!r}: machine body references {node.name!r}, "
                    "which is neither captured nor global"
                )
        elif cls is Assign and node.name in captured:
            return FieldSet(Var(env), node.name, node.value, pos=node.pos)
        elif cls is NextCall:
            return _apply_call(node, apply_name)
        elif cls is Let and node.name in captured and fault is None:
            fault = DefuncError(
                f"{name!r}: machine body declares {node.name!r}, "
                "which shadows a variable of the factory",
                *(node.pos or (None, None)),
            )
        elif cls is FuncLit and fault is None:
            fault = DefuncError("nested closure inside a machine body")
        return node

    body = map_tree(body, rewrite)
    if fault is not None:
        raise fault
    return body


def _apply_call(node: NextCall, apply_name: str) -> Call:
    """`next(g, v)` as `apply(g, v)`, a missing v null."""
    arg = node.arg if node.arg is not None else NullLit()
    return Call(Var(apply_name), [node.gen, arg], pos=node.pos)


def _to_apply(name: str, apply_name: str):
    """`next(g, v)` becomes `apply(g, v)` (_apply_call); no closure may
    remain."""

    def rewrite(node: Node) -> Node:
        if type(node) is NextCall:
            return _apply_call(node, apply_name)
        if type(node) is FuncLit:
            raise DefuncError(
                f"{name!r} contains a closure that is not a state machine"
            )
        return node

    return rewrite
