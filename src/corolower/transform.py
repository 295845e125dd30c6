"""Lowering of generators to closure-based state machines.

A generator `fn* f(p)` becomes an ordinary `fn f(p)` that declares every
hoisted local as null and returns a one-parameter anonymous function,
the machine, whose body is an instruction dispatch wrapped in
`while (true)`. A block ending in a yield updates the instruction
variable and returns the yielded value; a plain jump updates it and
goes back to the dispatch; finishing selects the sink state 0, in which
every later call returns null. Block ids serve as instruction numbers,
and the entry block is state 1.

Optimized, an `if` or `while` without a yield or return is one
statement of its block (cfg.build_cfg), its `let`s made assignments:
with no cut point inside, the source's structure is the answer and a
loop stays a loop, the simplest case of structured translation (Ramsey,
*Beyond Relooper*, ICFP 2022) and the Relooper's loop blocks (Zakai,
*Emscripten*, Onward! 2011). A leaf, a block that is neither the entry
nor a resume target and does not end in a branch, runs in place of the
one edge that reaches it, inside its branch arm; an arm to the end
selects the sink and returns null there. The other blocks are the
states, sparsely numbered (many-short's tally keeps 1, 2 and 4 of 5,
its null test a statement of state 4), so a `next` passes the dispatch
once per resume point. Arms hold no branch, so a flat run of thousands
of `if (x == k) { return k }` guards stays flat. Unoptimized, every
`if` and `while` is split and every block is a state.

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
consumer decides and the lowering cannot see. At 101 states
(wide-states' generator) it saves about 18 steps per `next` and pays
back after 12 `next`s in steps. A first-order instance only stores the
entry state's reference and gains from the first `next`.

All locals are hoisted into the factory frame and initialized to null,
including loop-body ones: that is the only scheme that survives a yield
between a variable's definition and its use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .cfg import (
    END,
    BasicBlock,
    Branch,
    Cfg,
    Finish,
    Goto,
    YieldTo,
    build_cfg,
    merge_blocks,
    pred_counts,
)
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
    identifiers,
    program_identifiers,
)


# A range of at most this many states dispatches through a chain of `==`
# tests. A chain of four costs 2.5 tests per transition on average, as
# does one `<` test over two chains of two, and fib's three-state machine
# keeps the paper's shape.
CHAIN_MAX = 4

# A machine of more than this many states dispatches through threaded
# state closures instead. Threaded time over bisection time, lowered-opt,
# for a loop of plain sequential yields (CPython 3.11, 2-core VM, best of
# 15 alternating runs; first-order was 0.88-1.19 throughout):
#
#   states                          8     32    49    64    70    100   128
#   one instance, 3,000 nexts       1.18  1.00  0.90  0.91  0.94  0.86  0.86
#   200 instances of 5 nexts each   1.41  1.55  1.75  2.20  2.01  2.12  2.51
#
# Long-lived instances gain from about 49 states on; short-lived lowered
# instances lose at every size, because each makes one closure per state.
# 64 keeps wide-states' generator, 101 states once its arms run in place,
# threaded: bisected, it takes 55.66 steps per next instead of 37.85 and
# prints 34,645 bytes instead of 15,252.
BISECT_MAX = 64


# The levels of nesting the optimized lowering puts above a statement of a
# block, as the parser counts them (13): the factory's body, `return fn
# (_r)`, the machine's body and its loop, the bisection of BISECT_MAX states
# down to CHAIN_MAX, a chain of CHAIN_MAX and a branch arm. Threaded states
# and the first-order form nest less.
LOWERED_DEPTH = 4 + math.ceil(math.log2(BISECT_MAX / CHAIN_MAX)) + CHAIN_MAX + 1


@dataclass
class StateMachinePlan:
    """How a generator maps onto its dispatch: the states' instruction
    numbers in ascending order (block ids serve as instruction numbers, a
    block run in place has none, and the end sentinel is the sink 0;
    many-short's tally has 1, 2 and 4), the hoisted locals, and the two
    fresh names woven into the machine."""

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
    instruction numbers; entry is state 1. Optimized, the blocks that are
    emitted in place (see `_inlined`) are no states."""
    graph = merge_blocks(build_cfg(func, True)) if opt else build_cfg(func)
    if names is None:
        names = NameAllocator(identifiers(func))
    hoisted = [n for n in graph.declared if n not in func.params]
    plan = StateMachinePlan(
        func=func.name,
        states=sorted(set(graph.blocks) - (_inlined(graph) if opt else set())),
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
    states = set(plan.states)
    inlined = {bid: block for bid, block in graph.blocks.items() if bid not in states}
    if opt:  # a transfer to the end selects the sink and returns null in place
        inlined[END] = BasicBlock(END, [], Finish())
    if len(plan.states) > BISECT_MAX:
        body = _threaded_factory(graph, plan, receivers, inlined, names)
    else:
        bodies = {
            state: _state_stmts(
                graph.blocks[state], receivers.get(state), plan, IntLit, inlined
            )
            for state in plan.states
        }
        dispatch = _dispatch(plan.states, bodies, plan.inst_var)
        machine = Block([While(BoolLit(True), Block([dispatch]))])
        body = [Let(plan.inst_var, IntLit(1))]
        body.extend(Let(name, NullLit()) for name in plan.hoisted)
        body.append(Return(FuncLit([plan.resume_param], machine)))
    return FuncDecl(func.name, list(func.params), False, Block(body))


def _threaded_factory(
    graph: Cfg,
    plan: StateMachinePlan,
    receivers: dict[int, str],
    inlined: dict[int, BasicBlock],
    names: NameAllocator,
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
            graph.blocks[state], receivers.get(state), plan, select, inlined, sentinel
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


def _inlined(graph: Cfg) -> set[int]:
    """The leaves, emitted in place of the one edge that reaches them:
    neither the entry nor a resume target nor ending in a branch, so a
    leaf nests no further and a long run of guards stays flat."""
    preds = pred_counts(graph.blocks, graph.entry)
    resumes = {
        block.terminator.resume
        for block in graph.blocks.values()
        if isinstance(block.terminator, YieldTo)
    }
    return {
        bid
        for bid, block in graph.blocks.items()
        if preds[bid] == 1
        and bid != graph.entry
        and bid not in resumes
        and not isinstance(block.terminator, Branch)
    }


def _receivers(graph: Cfg) -> dict[int, str]:
    """Resume targets that must bind the resume value before running."""
    out: dict[int, str] = {}
    for block in graph.blocks.values():
        term = block.terminator
        if isinstance(term, YieldTo) and term.receiver is not None:
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
    inlined: dict[int, BasicBlock],
    sentinel: str | None = None,
) -> list[Stmt]:
    """One state's statements. `select(k)` is the value of the instruction
    variable that selects state k. A transfer to an `inlined` leaf runs
    it in place. A state that can fall through returns the sentinel when
    there is one, and otherwise falls back into the dispatch."""

    def run(block: BasicBlock) -> list[Stmt]:
        out = [_hoisted(stmt) for stmt in block.stmts]
        term = block.terminator
        if isinstance(term, Branch):
            out.append(If(term.cond, Block(goto(term.then)), Block(goto(term.orelse))))
        elif isinstance(term, Goto):
            out += goto(term.target)
        elif isinstance(term, YieldTo):
            out.append(Assign(plan.inst_var, select(term.resume)))
            out.append(Return(term.value))
        elif isinstance(term, Finish):
            out.append(Assign(plan.inst_var, select(END)))
            out.append(Return(term.value if term.value is not None else NullLit()))
        else:
            raise AssertionError(f"unhandled terminator {term!r}")
        return out

    def goto(target: int) -> list[Stmt]:
        if target in inlined:
            return run(inlined[target])
        return [Assign(plan.inst_var, select(target))]

    out = [Assign(receiver, Var(plan.resume_param))] if receiver is not None else []
    out += run(block)
    if sentinel is not None and not _returns(out):
        out.append(Return(Var(sentinel)))
    return out


def _hoisted(stmt: Stmt) -> Stmt:
    """A block's statement with every `let` in it, closure bodies aside,
    made an assignment: the factory declares the local."""
    if isinstance(stmt, Let):
        return Assign(stmt.name, stmt.value)
    if isinstance(stmt, If):
        orelse = stmt.orelse and Block([_hoisted(s) for s in stmt.orelse.stmts])
        return If(stmt.cond, Block([_hoisted(s) for s in stmt.then.stmts]), orelse)
    if isinstance(stmt, While):
        return While(stmt.cond, Block([_hoisted(s) for s in stmt.body.stmts]))
    return stmt


def _returns(stmts: list[Stmt]) -> bool:
    """Whether a state's statements, or an arm's, return on every path."""
    last = stmts[-1]
    if isinstance(last, If):
        return _returns(last.then.stmts) and _returns(last.orelse.stmts)
    return isinstance(last, Return)


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
