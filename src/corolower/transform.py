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

- Up to SWITCH_MAX states the instruction variable holds the state's
  number, initially 1. A machine of CHAIN_MAX states or fewer, the
  figure of the paper, dispatches through an if/else-if chain of
  `_i == k` tests ending in `return null`. A larger one dispatches
  through one `switch (_i) case k { ... } ... else { return null }`, the
  jump table of a case statement over dense integer labels (Hennessy &
  Mendelsohn, 1982), whose transition costs the same at any size.
  Unknown instructions, the sink 0 included, return null.
- Above SWITCH_MAX states the dispatch is threaded (Bell, *Threaded
  code*, 1973): each state, the sink `_s0` included, is a closure
  `let _sK = fn (_r) { ... }` of the factory, and the instruction
  variable holds the closure of the next state, initially `_s1`. The
  factory also makes a sentinel record `let _k = {}`. A goto or branch
  ends in `_i = _sT; return _k`, a yield in `_i = _sT; return v` and a
  finish in `_i = _s0; return v`, and the machine is
  `while (true) { let _v = _i(_r)  if (_v != _k) { return _v } }`.
  Records compare by identity, so no yielded value equals the sentinel,
  and a loop without a yield stays a loop, never a recursion.

A threaded lowered instance spends 2 + 2 * (states + 1) more steps on
being made, for the sentinel, the sink and one closure per state, and
each of its transitions costs a call; a first-order instance only
stores the entry state's reference. Threading takes more steps and more
time than a switch at every size (see SWITCH_MAX), but prints fewer
bytes.

All locals are hoisted into the factory frame and initialized to null,
including loop-body ones: that is the only scheme that survives a yield
between a variable's definition and its use.
"""

from __future__ import annotations

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
    Switch,
    Var,
    While,
    identifiers,
)


# A machine of at most this many states dispatches through a chain of `==`
# tests, the figure of the paper, which fib's three-state machine keeps.
CHAIN_MAX = 4

# A machine of more than this many states dispatches through threaded
# state closures instead of a switch. Threaded time over switch time, for
# a loop of plain sequential yields (CPython 3.11, 2-core VM, best of 15
# alternating runs):
#
#   states                          8     32    49    64    70    100   128
#   one instance, 3,000 nexts
#     lowered-opt                   1.88  1.74  1.77  1.79  1.80  1.80  1.86
#     first-order                   1.46  1.52  1.54  1.60  1.55  1.51  1.50
#   200 instances of 5 nexts each
#     lowered-opt                   1.92  2.60  2.96  3.72  3.48  4.33  5.14
#     first-order                   1.47  1.50  1.50  1.50  1.45  1.45  1.50
#
# The switch wins at every size, in steps too: wide-states' generator, 101
# states once its arms run in place, takes 37.85 steps per next threaded
# and 29.11 switched. Threading stays above 64 for its printed size: that
# generator lowers to 15,252 bytes threaded and 16,660 switched, because a
# case body sits two levels deeper than a state closure.
SWITCH_MAX = 64


# The levels of nesting the optimized lowering puts above a statement of a
# block, as the parser counts them (9): the factory's body, `return fn
# (_r)`, the machine's body and its loop, a chain of CHAIN_MAX and a branch
# arm. A switch's case, a threaded state and the first-order form nest less.
LOWERED_DEPTH = 4 + CHAIN_MAX + 1


@dataclass
class StateMachinePlan:
    """How a generator maps onto its dispatch: the states' instruction
    numbers in ascending order (block ids serve as instruction numbers, a
    block run in place has none, and the end sentinel is the sink 0;
    many-short's tally has 1, 2 and 4), the hoisted locals, and the two
    fresh names woven into the machine."""

    states: list[int]
    hoisted: list[str]
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
    """Build the CFG, merged when optimized, and plan its machine. Block
    ids are dense reverse-postorder integers and serve directly as
    instruction numbers; entry is state 1. Optimized, the blocks that are
    emitted in place (see `_inlined`) are no states."""
    graph = build_cfg(func, opt)
    if names is None:
        names = NameAllocator(identifiers(func))
    hoisted = [n for n in graph.declared if n not in func.params]
    plan = StateMachinePlan(
        states=sorted(set(graph.blocks) - (_inlined(graph) if opt else set())),
        hoisted=hoisted,
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
    # The dispatch schemes differ in how a state is selected, by its number
    # or by its closure, and so in the factory's prefix and its machine.
    body: list[Stmt] = []
    select: Callable[[int], Expr] = IntLit
    sentinel = None
    if len(plan.states) > SWITCH_MAX:
        sentinel = names.fresh("_k")
        closures = {state: names.fresh(f"_s{state}") for state in [END] + plan.states}
        select = lambda state: Var(closures[state])
        body.append(Let(sentinel, RecordLit([])))
    bodies = {
        state: _state_stmts(
            graph.blocks[state], receivers.get(state), plan, select, inlined, sentinel
        )
        for state in plan.states
    }
    if sentinel is None:
        dispatch = _dispatch(plan.states, bodies, plan.inst_var)
        machine = Block([While(BoolLit(True), Block([dispatch]))])
    else:
        bodies[END] = [Return(NullLit())]
        for state in [END] + plan.states:
            body.append(Let(closures[state], FuncLit([plan.resume_param], Block(bodies[state]))))
        call = Call(Var(plan.inst_var), [Var(plan.resume_param)])
        machine = threaded_loop(call, names.fresh("_v"), Var(sentinel))
    body.append(Let(plan.inst_var, select(graph.entry)))
    body.extend(Let(name, NullLit()) for name in plan.hoisted)
    body.append(Return(FuncLit([plan.resume_param], machine)))
    return FuncDecl(func.name, list(func.params), False, Block(body))


def threaded_loop(call: Expr, value: str, sentinel: Expr) -> Block:
    """`while (true) { let value = call  if (value != sentinel) { return
    value } }`: run states until one returns something other than the
    sentinel. defunc builds the first-order machine from it too."""
    keep_going = Binary("!=", Var(value), sentinel)
    step = Block([Let(value, call), If(keep_going, Block([Return(Var(value))]))])
    return Block([While(BoolLit(True), step)])


def _dispatch(states: list[int], bodies: dict[int, list[Stmt]], inst: str) -> Stmt:
    """Select the body of state `inst` among the ascending `states`: a
    chain of `==` tests up to CHAIN_MAX states, a switch above. An
    unknown instruction, the sink 0 included, returns null."""
    if len(states) > CHAIN_MAX:
        cases = [(state, Block(bodies[state])) for state in states]
        return Switch(Var(inst), cases, Block([Return(NullLit())]))
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
    terms = {bid: block.terminator for bid, block in graph.blocks.items()}
    preds = pred_counts(terms, graph.entry)
    resumes = {t.resume for t in terms.values() if isinstance(t, YieldTo)}
    return {
        bid
        for bid, t in terms.items()
        if preds[bid] == 1
        and bid != graph.entry
        and bid not in resumes
        and not isinstance(t, Branch)
    }


def _receivers(graph: Cfg) -> dict[int, str]:
    """Resume targets that must bind the resume value before running."""
    out: dict[int, str] = {}
    for block in graph.blocks.values():
        term = block.terminator
        if isinstance(term, YieldTo) and term.receiver is not None:
            if out.get(term.resume, term.receiver) != term.receiver:
                raise AssertionError("two receivers resume at one state")
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
    names = NameAllocator(program.identifiers)
    decls = [
        rewrite_generator(d, opt, names) if d.is_generator else d
        for d in program.decls
    ]
    return Program(decls, program.entry)
