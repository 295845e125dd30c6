"""First-order output: closures replaced by environment records plus
lifted top-level functions, applied through one global dispatcher.

Each state-machine factory F becomes (a) a lifted `F_fo(env, r)` holding
the machine with every captured variable rewritten to a field of env,
and (b) a constructor returning `{ env: {...}, fn: &F_fo }`. A single
`apply(c, r)` performs `c.fn(c.env, r)`, and every `next(g, v)` call
site anywhere in the program becomes `apply(g, v)`. The result contains
no anonymous functions at all.

A threaded factory (see transform) holds one closure per state. Each is
lifted too, to a top-level `F_sK(env, r)`, so the environment's `_i`
field holds `&F_sK` and its `_k` field the sentinel record, and `F_fo`
runs `while (true) { let _v = _e._i(_e, _r)  if (_v != _e._k) { return
_v } }`. This is defunctionalization carried one level further (Danvy &
Nielsen, PPDP 2001): a state is named by a function reference instead
of a number.

Each lifted body, a machine or a state closure, takes one map_tree
rewrite (`_lift`) that moves captured variables into the environment,
makes `next` `apply` and counts the transfers between states. A bad
transfer is reported first, then a state used as a value, then the first
name fault the rewrite met. The declarations not lifted are rewritten
after every factory, so a lifting fault wins over a stray closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    declared_locals,
    map_tree,
    program_identifiers,
)
from .transform import NameAllocator, threaded_loop


@dataclass
class _FactoryShape:
    inst_var: str
    params: list[str]
    hoisted: list[str]
    resume_param: str
    machine_body: Block
    # A threaded factory's sentinel, its state closures by name and the
    # name of the one it starts in; None and empty for a numbered dispatch.
    sentinel: str | None = None
    states: dict[str, FuncLit] = field(default_factory=dict)
    entry: str | None = None


def match_factory(decl: FuncDecl) -> _FactoryShape | None:
    """Recognize the exact shapes transform emits: `let inst = 1`, a null
    `let` per hoisted local, then `return fn (r) { ... }`; or, threaded,
    `let k = {}`, a one-parameter closure `let` per state, `let inst =
    <a state>`, the null `let`s, then `return fn (r) { <threaded_loop> }`."""
    stmts = decl.body.stmts
    if not stmts or not isinstance(stmts[-1], Return):
        return None
    ret = stmts[-1]
    if not isinstance(ret.value, FuncLit) or len(ret.value.params) != 1:
        return None
    lets = stmts[:-1]
    if not lets or not all(isinstance(s, Let) for s in lets):
        return None
    shape = _FactoryShape(
        inst_var="",
        params=list(decl.params),
        hoisted=[],
        resume_param=ret.value.params[0],
        machine_body=ret.value.body,
    )
    rest = iter(lets)
    first = next(rest)
    if first.value == RecordLit([]):
        shape.sentinel = first.name
        first = next(rest, None)
        while first is not None and isinstance(first.value, FuncLit):
            if len(first.value.params) != 1:
                return None
            shape.states[first.name] = first.value
            first = next(rest, None)
        if first is None or not _is_threaded_machine(first, shape):
            return None
        shape.entry = first.value.name
    elif first.value != IntLit(1):
        return None
    shape.inst_var = first.name
    for s in rest:
        if not isinstance(s.value, NullLit):
            return None
        shape.hoisted.append(s.name)
    # Every name the environment record holds is bound once, and no
    # function parameter shadows one.
    bound = [s.name for s in lets] + shape.params
    params = {shape.resume_param} | {c.params[0] for c in shape.states.values()}
    if len(set(bound)) != len(bound) or params & set(bound):
        return None
    return shape


def _is_threaded_machine(inst: Let, shape: _FactoryShape) -> bool:
    """`let inst = <a state>` and a machine that is exactly the threaded
    loop calling `inst(r)`."""
    if not (isinstance(inst.value, Var) and inst.value.name in shape.states):
        return False
    values = declared_locals(shape.machine_body)
    if len(values) != 1:
        return False
    call = Call(Var(inst.name), [Var(shape.resume_param)])
    return shape.machine_body == threaded_loop(call, values[0], Var(shape.sentinel))


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
        env_fields = [shape.inst_var] + shape.params + shape.hoisted
        if shape.sentinel is None:
            captured, bound = set(env_fields), global_names | {shape.resume_param}
            machine = _lift(decl.name, shape.machine_body, env_param, captured, bound, apply_name)
            decls.append(FuncDecl(fo_name, [env_param, shape.resume_param], False, machine))
            inst_init: Expr = IntLit(1)
            sentinel_init = []
        else:
            env_fields.insert(1, shape.sentinel)
            captured = set(env_fields)
            refs = {s: names.fresh(f"{decl.name}{s}") for s in shape.states}
            threaded = (shape.inst_var, refs, set(refs.values()))
            decls.append(_threaded_machine(shape, fo_name, env_param))
            for state, closure in shape.states.items():
                (resume,) = closure.params
                bound = global_names | {resume}
                body = _lift(
                    decl.name, closure.body, env_param, captured, bound, apply_name, threaded
                )
                decls.append(FuncDecl(refs[state], [env_param, resume], False, body))
            inst_init = FuncRef(refs[shape.entry])
            sentinel_init = [(shape.sentinel, RecordLit([]))]
        env_init: list[tuple[str, Expr]] = [(shape.inst_var, inst_init)]
        env_init += sentinel_init
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


def _threaded_machine(shape: _FactoryShape, name: str, env: str) -> FuncDecl:
    # fn F_fo(_e, _r) { while (true) { let _v = _e._i(_e, _r) if (_v != _e._k) { return _v } } }
    (value,) = declared_locals(shape.machine_body)
    state = FieldGet(Var(env), shape.inst_var)
    call = Call(state, [Var(env), Var(shape.resume_param)])
    body = threaded_loop(call, value, FieldGet(Var(env), shape.sentinel))
    return FuncDecl(name, [env, shape.resume_param], False, body)


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
    threaded: tuple[str, dict[str, str], set[str]] | None = None,
) -> Block:
    """A machine or state body lifted to the top level by one map_tree
    rewrite: a captured variable becomes a field of the environment
    record, a state closure in `threaded` a reference to its lifted
    function, and `next(g, v)` `apply(g, v)`. Any other variable must be
    bound without them, and a `let` of a captured name, which would shadow
    it in the machine but not in the lifted body, is refused.

    `threaded` holds a threaded factory's instruction variable, its state
    closures' lifted names and the set of those. A state may name a state
    or the instruction variable only in `inst = <a state>`: a lifted state
    is a function reference, no closure to call or compare. Such a fault
    wins over a name fault, which is held until the rewrite ends."""
    inst, refs, targets = threaded or (None, {}, set())
    fault: DefuncError | None = None
    transfers = uses = 0

    def rewrite(node: Node) -> Node:
        nonlocal fault, transfers, uses
        cls = type(node)
        if cls is Var:
            if node.name in refs:
                uses += 1
                return FuncRef(refs[node.name], pos=node.pos)
            if node.name in captured:
                uses += node.name == inst
                return FieldGet(Var(env), node.name, pos=node.pos)
            if node.name not in bound and fault is None:
                fault = DefuncError(
                    f"{name!r}: machine body references {node.name!r}, "
                    "which is neither captured nor global"
                )
        elif cls is Assign and node.name in captured:
            if node.name == inst:
                # The state has been rewritten to its function reference.
                if not (type(node.value) is FuncRef and node.value.name in targets):
                    raise DefuncError(f"{name!r}: the next state is not a state closure")
                transfers += 1
            return FieldSet(Var(env), node.name, node.value, pos=node.pos)
        elif cls is NextCall:
            arg = node.arg if node.arg is not None else NullLit()
            return Call(Var(apply_name), [node.gen, arg], pos=node.pos)
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
    if uses != transfers:
        raise DefuncError(f"{name!r}: a state closure is used as a value")
    if fault is not None:
        raise fault
    return body


def _to_apply(name: str, apply_name: str):
    """`next(g, v)` becomes `apply(g, v)`, a missing v null; no closure
    may remain."""

    def rewrite(node: Node) -> Node:
        if type(node) is NextCall:
            arg = node.arg if node.arg is not None else NullLit()
            return Call(Var(apply_name), [node.gen, arg], pos=node.pos)
        if type(node) is FuncLit:
            raise DefuncError(
                f"{name!r} contains a closure that is not a state machine"
            )
        return node

    return rewrite
