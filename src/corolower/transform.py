"""Lowering of generators to closure-based state machines.

A generator `fn* f(p)` becomes an ordinary `fn f(p)` that declares every
hoisted local as null and returns a one-parameter anonymous function,
the machine, whose body is an instruction dispatch wrapped in
`while (true)`. A block ending in a yield updates the instruction
variable and returns the yielded value; a plain jump updates it and
goes back to the dispatch; finishing selects the sink state 0, in which
every later call returns null. Block ids serve as instruction numbers,
and the entry block is state 1.

The dispatch scheme depends only on the number of states:

- Up to BISECT_MAX states the instruction variable holds the state's
  number, initially 1, and the dispatch is a balanced binary search
  over the sorted numbers, the case-statement lowering of Hennessy &
  Mendelsohn (1982): `if (_i < m) { ... } else { ... }` halves the range
  until at most CHAIN_MAX states are left, and such a range is an
  if/else-if chain of `_i == k` tests ending in `return null`. A
  transition costs O(log states) tests. A machine of CHAIN_MAX states
  or fewer is a single chain, the figure of the paper. Unknown
  instructions, the sink 0 included, fall through to `return null`.
- Above BISECT_MAX states the dispatch is threaded (Bell, *Threaded
  code*, 1973): each state, the sink `_s0` included, is a closure
  `let _sK = fn (_r) { ... }` of the factory, and the instruction
  variable holds the closure of the next state, initially `_s1`. The
  factory also makes a sentinel record `let _k = {}`. A goto or branch
  ends in `_i = _sT; return _k`, a yield in `_i = _sT; return v` and a
  finish in `_i = _s0; return v`, and the machine is
  `while (true) { let _v = _i(_r)  if (_v != _k) { return _v } }`.
  Records compare by identity, so no yielded value equals the sentinel,
  and a loop without a yield stays a loop, never a recursion. A
  transition costs one call, but a call costs several tests here, so
  small machines keep bisection.

Threaded dispatch moves cost from each `next` to instance creation: a
lowered instance spends 2 + 2 * (states + 1) more steps on being made,
for the sentinel, the sink and one closure per state. What it gains
therefore depends on how often each instance is resumed, which the
consumer decides and the lowering cannot see. At 301 states it saves
about 48 steps per `next` and pays back after 13 `next`s in steps; in
time, where making a closure costs more than a dispatch test, after
about 50. A first-order instance only stores the entry state's
reference and gains from the first `next`.

All locals are hoisted into the factory frame and initialized to null,
including loop-body ones: that is the only scheme that survives a yield
between a variable's definition and its use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cfg import END, BasicBlock, Branch, Cfg, Finish, Goto, YieldTo, build_cfg, merge_blocks
from .syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    Expr,
    FuncDecl,
    FuncLit,
    If,
    IntLit,
    Let,
    NullLit,
    Program,
    RecordLit,
    Return,
    Stmt,
    Var,
    While,
    declared_locals,
    identifiers,
    program_identifiers,
)


# A range of at most this many states dispatches through a chain of `==`
# tests. A chain of four costs 2.5 tests per transition on average, as
# does one `<` test over two chains of two, and fib's three-state machine
# keeps the paper's shape.
CHAIN_MAX = 4

# A machine of more than this many states dispatches through threaded
# state closures instead. Against bisection (CPython 3.11, 2-core VM),
# threaded dispatch ran 1.25 times as long at 8 states, about as long at
# 49 and 0.77-0.97 times as long at 67-301, on one instance resumed
# throughout. 128 is a conservative choice above that crossover, not a
# measured one: a lowered instance makes one closure per state, and the
# fewer the states the less a transition saves to pay for them.
BISECT_MAX = 128


@dataclass
class StateMachinePlan:
    """How a generator maps onto its dispatch: the instruction numbers in
    ascending order (block ids serve as instruction numbers, and the end
    sentinel is the sink 0), the hoisted locals, and the two fresh names
    woven into the machine."""

    func: str
    states: list[int]
    hoisted: list[str]
    params: list[str]
    resume_param: str
    inst_var: str


class NameAllocator:
    """Deterministic fresh names: the base, then base1, base2, ... skipping
    anything taken. Shared across a whole program so two generators never
    introduce the same name."""

    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        candidate = base
        bump = 0
        while candidate in self.taken:
            bump += 1
            candidate = f"{base}{bump}"
        self.taken.add(candidate)
        return candidate


def plan_generator(
    func: FuncDecl, opt: bool = True, names: NameAllocator | None = None
) -> tuple[Cfg, StateMachinePlan]:
    """Build (and optionally merge) the CFG and plan its machine. Block
    ids are dense reverse-postorder integers and serve directly as
    instruction numbers; entry is state 1."""
    graph = build_cfg(func)
    if opt:
        graph = merge_blocks(graph)
    if names is None:
        names = NameAllocator(identifiers(func))
    hoisted = [n for n in declared_locals(func.body) if n not in func.params]
    plan = StateMachinePlan(
        func=func.name,
        states=sorted(graph.blocks),
        hoisted=hoisted,
        params=list(func.params),
        resume_param=names.fresh("_r"),
        inst_var=names.fresh("_i"),
    )
    return graph, plan


def rewrite_generator(
    func: FuncDecl, opt: bool = True, names: NameAllocator | None = None
) -> FuncDecl:
    """Rewrite one generator into a state-machine factory of the same name
    and parameters."""
    if names is None:
        names = NameAllocator(identifiers(func))
    graph, plan = plan_generator(func, opt, names)
    receivers = _receivers(graph)
    if len(plan.states) > BISECT_MAX:
        body = _threaded_factory(graph, plan, receivers, names)
    else:
        bodies = {
            bid: _state_stmts(block, receivers.get(bid), plan, IntLit)
            for bid, block in graph.blocks.items()
        }
        dispatch = _dispatch(plan.states, bodies, plan.inst_var)
        machine = Block([While(BoolLit(True), Block([dispatch]))])
        body = [Let(plan.inst_var, IntLit(1))]
        body.extend(Let(name, NullLit()) for name in plan.hoisted)
        body.append(Return(FuncLit([plan.resume_param], machine)))
    return FuncDecl(func.name, list(func.params), False, Block(body))


def _threaded_factory(
    graph: Cfg, plan: StateMachinePlan, receivers: dict[int, str], names: NameAllocator
) -> list[Stmt]:
    """The factory body of a threaded machine: the sentinel, the sink's
    closure and one per state, the instruction variable holding the entry
    state's closure, the hoisted locals, and the machine."""
    sentinel = names.fresh("_k")
    closures = {state: names.fresh(f"_s{state}") for state in [END] + plan.states}
    value = names.fresh("_v")

    def select(state: int) -> Expr:
        return Var(closures[state])

    body: list[Stmt] = [
        Let(sentinel, RecordLit([])),
        Let(closures[END], FuncLit([plan.resume_param], Block([Return(NullLit())]))),
    ]
    for state in plan.states:
        stmts = _state_stmts(
            graph.blocks[state], receivers.get(state), plan, select, sentinel
        )
        body.append(Let(closures[state], FuncLit([plan.resume_param], Block(stmts))))
    body.append(Let(plan.inst_var, select(graph.entry)))
    body.extend(Let(name, NullLit()) for name in plan.hoisted)
    call = Call(Var(plan.inst_var), [Var(plan.resume_param)])
    machine = threaded_loop(call, value, Var(sentinel))
    body.append(Return(FuncLit([plan.resume_param], machine)))
    return body


def threaded_loop(call: Expr, value: str, sentinel: Expr) -> Block:
    """`while (true) { let value = call  if (value != sentinel) { return
    value } }`: run states until one returns something other than the
    sentinel. defunc builds the first-order machine from it too."""
    keep_going = Binary("!=", Var(value), sentinel)
    step = Block([Let(value, call), If(keep_going, Block([Return(Var(value))]))])
    return Block([While(BoolLit(True), step)])


def _dispatch(states: list[int], bodies: dict[int, list[Stmt]], inst: str) -> Stmt:
    """Select the body of state `inst` among the ascending `states`."""
    if len(states) > CHAIN_MAX:
        mid = len(states) // 2
        return If(
            Binary("<", Var(inst), IntLit(states[mid])),
            Block([_dispatch(states[:mid], bodies, inst)]),
            Block([_dispatch(states[mid:], bodies, inst)]),
        )
    # Unknown instruction (0 included): the machine is exhausted.
    chain: Stmt = Return(NullLit())
    for state in reversed(states):
        chain = If(
            Binary("==", Var(inst), IntLit(state)),
            Block(bodies[state]),
            Block([chain]),
        )
    return chain


def _receivers(graph: Cfg) -> dict[int, str]:
    """Resume targets that must bind the resume value before running."""
    out: dict[int, str] = {}
    for block in graph.blocks.values():
        term = block.terminator
        if isinstance(term, YieldTo) and term.receiver is not None and term.resume != END:
            existing = out.get(term.resume)
            assert existing is None or existing == term.receiver, (
                "two receivers resume at one state"
            )
            out[term.resume] = term.receiver
    return out


def _state_stmts(
    block: BasicBlock,
    receiver: str | None,
    plan: StateMachinePlan,
    select: Callable[[int], Expr],
    sentinel: str | None = None,
) -> list[Stmt]:
    """One state's statements. `select(k)` is the value of the instruction
    variable that selects state k. A goto or branch returns the sentinel
    when there is one, and otherwise falls back into the dispatch."""
    inst = plan.inst_var
    out: list[Stmt] = []
    if receiver is not None:
        out.append(Assign(receiver, Var(plan.resume_param)))
    for stmt in block.stmts:
        if isinstance(stmt, Let):
            out.append(Assign(stmt.name, stmt.value))  # declaration was hoisted
        else:
            out.append(stmt)
    term = block.terminator
    if isinstance(term, Goto):
        out.append(Assign(inst, select(term.target)))
    elif isinstance(term, Branch):
        out.append(
            If(
                term.cond,
                Block([Assign(inst, select(term.then))]),
                Block([Assign(inst, select(term.orelse))]),
            )
        )
    elif isinstance(term, YieldTo):
        out.append(Assign(inst, select(term.resume)))
        out.append(Return(term.value))
    elif isinstance(term, Finish):
        out.append(Assign(inst, select(END)))
        out.append(Return(term.value if term.value is not None else NullLit()))
    else:
        raise AssertionError(f"unhandled terminator {term!r}")
    if sentinel is not None and isinstance(term, (Goto, Branch)):
        out.append(Return(Var(sentinel)))
    return out


def transform_program(program: Program, opt: bool = True) -> Program:
    """Rewrite every generator declaration; everything else is untouched.
    Call sites keep using next(g): applying next to the returned closure
    is plain application, so drivers are transformation-invariant. Fresh
    names are allocated program-wide, so two generators never share
    them."""
    names = NameAllocator(program_identifiers(program))
    decls = [
        rewrite_generator(d, opt, names) if d.is_generator else d
        for d in program.decls
    ]
    return Program(decls, program.entry)
