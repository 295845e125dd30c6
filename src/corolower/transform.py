"""Lowering of generators to closure-based state machines.

A generator `fn* f(p)` becomes an ordinary `fn f(p)` that declares every
hoisted local as null and returns a one-parameter anonymous function,
the machine, whose body is an instruction dispatch wrapped in
`while (true)`, unless no jump falls back into it (below). A block ending in a yield updates the instruction
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

The instruction variable holds the number of the next state, initially
1. A small machine, the figure of the paper, dispatches through an
if/else-if chain of `_i == k` tests ending in `return null`: up to
CHAIN_MAX states unoptimized and CHAIN_MAX - 1 optimized. A larger one
dispatches through one `switch (_i) case k { ... } ... else { return
null }`, the jump table of a case statement over dense integer labels
(Hennessy & Mendelsohn, 1982), whose transition costs the same at any
size. Unknown instructions, the sink 0 included, return null. The
printer writes a case body at the switch's own indent, so a state's
statements cost no more bytes at any size of machine.

An optimized switched machine runs a state in place of its only jump:
when the goto ending state S is the only goto or branch arm into state
T, S's case holds T's statements where `_i = T` would stand, and T keeps
its case for the first `next` and its resumptions. The copy's own jumps
set the instruction variable, so a state prints at most twice, at case
level: a tail duplication (Zakai, 2011) bounded to one copy. A receiver's
state is reached only by a resumption, so no binding is copied. A
switched machine with no jump left that falls back into the dispatch
drops the `while (true)`. Chains and unoptimized machines keep their
loop, so fib prints as in the paper.

All locals are hoisted into the factory frame and initialized to null,
including loop-body ones: that is the only scheme that survives a yield
between a variable's definition and its use.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    targets,
)
from .syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    FuncDecl,
    FuncLit,
    If,
    IntLit,
    Let,
    NullLit,
    Program,
    Return,
    Stmt,
    Switch,
    Var,
    While,
    identifiers,
)


# An unoptimized machine of at most this many states dispatches through a
# chain of `==` tests, the figure of the paper, which fib's four-state
# unoptimized machine keeps. The optimized lowering keeps a chain only
# below CHAIN_MAX states, fib's three: over four states a chain runs 2.5
# tests, 10 steps, on average where a switch takes 2.
CHAIN_MAX = 4

# A bound on the levels of nesting the optimized lowering puts above a
# statement of a block, as the parser counts them (8): the factory's body,
# `return fn (_r)`, the machine's body and its loop, the optimized chain
# of CHAIN_MAX - 1 tests and a branch arm. That chain nests deepest: a
# switch's case nests a level less, a switch with no loop around it two,
# and a state run in place of a jump sits at case level. The first-order
# form nests less.
LOWERED_DEPTH = 4 + CHAIN_MAX


@dataclass
class StateMachinePlan:
    """How a generator maps onto its dispatch: the states' instruction
    numbers in ascending order (block ids serve as instruction numbers, a
    block run in place has none, and the end, END, is the sink 0;
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
    chain_max = CHAIN_MAX - 1 if opt else CHAIN_MAX
    switched = opt and len(plan.states) > chain_max
    threads = _threads(graph, states) if switched else {}
    bodies = {
        state: _state_stmts(graph.blocks[state], receivers, plan, inlined, threads)
        for state in plan.states
    }
    dispatch = _dispatch(plan.states, bodies, plan.inst_var, chain_max)
    body: list[Stmt] = [Let(plan.inst_var, IntLit(graph.entry))]
    body.extend(Let(name, NullLit()) for name in plan.hoisted)
    if switched and not any(_falls_through(b) for b in bodies.values()):
        machine = Block([dispatch])
    else:
        machine = Block([While(BoolLit(True), Block([dispatch]))])
    body.append(Return(FuncLit([plan.resume_param], machine)))
    return FuncDecl(func.name, list(func.params), False, Block(body))


def _dispatch(
    states: list[int], bodies: dict[int, list[Stmt]], inst: str, chain_max: int
) -> Stmt:
    """Select the body of state `inst` among the ascending `states`: a
    chain of `==` tests up to `chain_max` states, a switch above. An
    unknown instruction, the sink 0 included, returns null."""
    if len(states) > chain_max:
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


def _threads(graph: Cfg, states: set[int]) -> dict[int, BasicBlock]:
    """The states whose only incoming jump, a goto or a branch arm, is the
    goto that ends another state, keyed by that state. The entry's first
    selection and a yield's resumption are no jumps: the target keeps its
    own case for them."""
    jumps: dict[int, list[int]] = {}
    for bid, block in graph.blocks.items():
        if isinstance(block.terminator, (Goto, Branch)):
            for target in targets(block.terminator):
                jumps.setdefault(target, []).append(bid)
    out = {}
    for target, sources in jumps.items():
        if target in states and len(sources) == 1:
            source = sources[0]
            if source in states and isinstance(graph.blocks[source].terminator, Goto):
                out[source] = graph.blocks[target]
    return out


def _falls_through(stmts: list[Stmt]) -> bool:
    """Whether a state's statements can end without a return, falling
    back into the dispatch. They end in their terminator: a return, a
    jump, or a branch's `if`, whose two arms end the same way."""
    last = stmts[-1]
    if isinstance(last, If):
        return _falls_through(last.then.stmts) or _falls_through(last.orelse.stmts)
    return not isinstance(last, Return)


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
    receivers: dict[int, str],
    plan: StateMachinePlan,
    inlined: dict[int, BasicBlock],
    threads: dict[int, BasicBlock],
) -> list[Stmt]:
    """One state's statements. A transfer to an `inlined` leaf runs it in
    place; any other sets the instruction variable, and a state that does
    not return falls back into the dispatch. A goto ending a state in
    `threads` runs the target state's statements in place, once: the
    copy's own jumps set the instruction variable."""

    def run(block: BasicBlock) -> list[Stmt]:
        out = [_hoisted(stmt) for stmt in block.stmts]
        term = block.terminator
        if isinstance(term, Branch):
            out.append(If(term.cond, Block(goto(term.then)), Block(goto(term.orelse))))
        elif isinstance(term, Goto):
            out += goto(term.target)
        elif isinstance(term, YieldTo):
            out.append(Assign(plan.inst_var, IntLit(term.resume)))
            out.append(Return(term.value))
        elif isinstance(term, Finish):
            out.append(Assign(plan.inst_var, IntLit(END)))
            out.append(Return(term.value if term.value is not None else NullLit()))
        else:
            raise AssertionError(f"unhandled terminator {term!r}")
        return out

    def goto(target: int) -> list[Stmt]:
        if target in inlined:
            return run(inlined[target])
        return [Assign(plan.inst_var, IntLit(target))]

    receiver = receivers.get(block.id)
    out = [Assign(receiver, Var(plan.resume_param))] if receiver is not None else []
    out += run(block)
    target = threads.get(block.id)
    if target is not None:
        if target.id in receivers:
            raise AssertionError("a jump runs a receiver's state in place")
        out[-1:] = _state_stmts(target, receivers, plan, inlined, {})
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
