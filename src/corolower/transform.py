"""Lowering of generators to closure-based state machines.

A generator `fn* f(p)` becomes an ordinary `fn f(p)` that initializes an
instruction variable to 1, declares every hoisted local as null, and
returns a one-parameter anonymous function whose body is an instruction
dispatch wrapped in `while (true)`. A block ending in a yield updates
the instruction variable and returns the yielded value; a plain jump
updates it and falls back into the dispatch; finishing sets it to 0, the
sink state in which every later call returns null.

The dispatch is a balanced binary search over the sorted instruction
numbers, the case-statement lowering of Hennessy & Mendelsohn (1982):
`if (_i < m) { ... } else { ... }` halves the range until at most
CHAIN_MAX states are left, and such a range is an if/else-if chain of
`_i == k` tests ending in `return null`. A transition therefore costs
O(log states) tests and the dispatch nests O(log states) deep. A machine
of CHAIN_MAX states or fewer is a single chain, the figure of the paper.
Unknown instructions, the sink 0 included, fall through to `return null`.

All locals are hoisted into the factory frame and initialized to null,
including loop-body ones: that is the only scheme that survives a yield
between a variable's definition and its use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import END, BasicBlock, Branch, Cfg, Finish, Goto, YieldTo, build_cfg, merge_blocks
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
    graph, plan = plan_generator(func, opt, names)
    receivers = _receivers(graph)
    bodies = {
        bid: _state_stmts(block, receivers.get(bid), plan)
        for bid, block in graph.blocks.items()
    }
    dispatch = _dispatch(plan.states, bodies, plan.inst_var)
    machine = FuncLit(
        [plan.resume_param],
        Block([While(BoolLit(True), Block([dispatch]))]),
    )
    body: list[Stmt] = [Let(plan.inst_var, IntLit(1))]
    body.extend(Let(name, NullLit()) for name in plan.hoisted)
    body.append(Return(machine))
    return FuncDecl(func.name, list(func.params), False, Block(body))


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
    block: BasicBlock, receiver: str | None, plan: StateMachinePlan
) -> list[Stmt]:
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
        out.append(Assign(inst, IntLit(term.target)))
    elif isinstance(term, Branch):
        out.append(
            If(
                term.cond,
                Block([Assign(inst, IntLit(term.then))]),
                Block([Assign(inst, IntLit(term.orelse))]),
            )
        )
    elif isinstance(term, YieldTo):
        out.append(Assign(inst, IntLit(term.resume)))
        out.append(Return(term.value))
    elif isinstance(term, Finish):
        out.append(Assign(inst, IntLit(0)))
        out.append(Return(term.value if term.value is not None else NullLit()))
    else:
        raise AssertionError(f"unhandled terminator {term!r}")
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
