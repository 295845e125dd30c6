import re
import sys

import pytest

from corolower import cli, transform
from corolower.cfg import END, Branch, Goto, YieldTo, build_cfg, merge_blocks
from corolower.defunc import defunctionalize
from corolower.errors import DefuncError, TransformError
from corolower.interp import Interpreter, Record, interp, interp_native, resume_sequence
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    FuncLit,
    If,
    IntLit,
    Let,
    LetYield,
    NullLit,
    RecordLit,
    Return,
    Switch,
    Var,
    While,
    YieldStmt,
    walk,
)
from corolower.transform import (
    SWITCH_MAX,
    CHAIN_MAX,
    plan_generator,
    rewrite_generator,
    transform_program,
)

from conftest import (
    CORPUS_DIR,
    CORPUS_FILES,
    FIB_SOURCE,
    GOLDEN_DIR,
    RECEIVE_SOURCE,
    outside_closures,
    wide_source,
)

# The two-yield coroutine of the paper, and its expected machine: state 1
# returns n and advances; state 2 binds the resume value, finishes, and
# returns n + x. Structural equality is checked modulo nothing: the fresh
# names below are exactly what the allocator produces.
SIMPLE_COROUTINE = "fn* f(n) { let x = yield n yield n + x } fn main() { }"

SIMPLE_MACHINE = """
fn f(n) {
  let _i = 1
  let x = null
  return fn (_r) {
    while (true) {
      if (_i == 1) {
        _i = 2
        return n
      } else {
        if (_i == 2) {
          x = _r
          _i = 0
          return n + x
        } else {
          return null
        }
      }
    }
  }
}
"""

FIB_MACHINE = """
fn fib() {
  let _i = 1
  let a = null
  let b = null
  let c = null
  return fn (_r) {
    while (true) {
      if (_i == 1) {
        a = 0
        b = 1
        _i = 2
      } else {
        if (_i == 2) {
          _i = 3
          return a
        } else {
          if (_i == 3) {
            c = a
            a = b
            b = c + a
            _i = 2
          } else {
            return null
          }
        }
      }
    }
  }
}
"""


def is_threaded(decl):
    """A threaded factory starts with its sentinel, `let _k = {}`."""
    first = decl.body.stmts[0]
    return isinstance(first, Let) and first.value == RecordLit([])


def state_lets(decl):
    """A threaded factory's `let _sK = fn (_r) { ... }` by state number K:
    the sink 0, then the states in ascending order. No program here uses
    a name that would make the allocator bump `_sK`."""
    lets = {}
    for stmt in decl.body.stmts:
        if isinstance(stmt, Let) and isinstance(stmt.value, FuncLit):
            assert re.fullmatch(r"_s\d+", stmt.name), stmt.name
            lets[int(stmt.name[2:])] = stmt
    assert list(lets) == sorted(lets)
    return lets


def state_closures(decl):
    return {state: let.value for state, let in state_lets(decl).items()}


def machine_loop(decl):
    """The machine's `while (true)`."""
    ret = decl.body.stmts[-1]
    machine = ret.value
    assert isinstance(machine, FuncLit)
    (loop,) = machine.body.stmts
    assert isinstance(loop, While) and loop.cond == BoolLit(True)
    return loop


def dispatch_root(decl):
    """The dispatch statement inside the machine's `while (true)` of a
    numbered dispatch."""
    assert not is_threaded(decl)
    loop = machine_loop(decl)
    assert len(loop.body.stmts) == 1
    return loop.body.stmts[0]


def dispatch_tests(decl):
    """(test, depth) for every `_i == k` test of a chain dispatch; depth
    counts the tests from the root down to and including it. State
    bodies are not entered. A switched or threaded machine has none: it
    selects a state in one statement or one call."""
    if is_threaded(decl) or isinstance(dispatch_root(decl), Switch):
        return []
    inst = decl.body.stmts[0].name
    out = []
    stmt, depth = dispatch_root(decl), 1
    while not isinstance(stmt, Return):  # unknown instruction
        assert isinstance(stmt, If)
        cond = stmt.cond
        assert isinstance(cond, Binary) and cond.op == "=="
        assert cond.lhs == Var(inst) and isinstance(cond.rhs, IntLit)
        out.append((stmt, depth))
        (stmt,) = stmt.orelse.stmts
        depth += 1
    return out


def dispatch_switch(decl):
    """The machine's `switch (_i)`, whose else returns null, or None."""
    if is_threaded(decl) or not isinstance(dispatch_root(decl), Switch):
        return None
    switch = dispatch_root(decl)
    assert switch.subject == Var(decl.body.stmts[0].name)
    assert switch.orelse == Block([Return(NullLit())])
    return switch


def dispatch_arms(decl):
    """{state: statements run when the dispatch selects it}, in any
    scheme; the sink 0 is no arm."""
    if is_threaded(decl):
        closures = state_closures(decl)
        assert closures[0].body.stmts == [Return(NullLit())]
        return {state: c.body.stmts for state, c in closures.items() if state}
    switch = dispatch_switch(decl)
    if switch is not None:
        return {label: block.stmts for label, block in switch.cases}
    arms = [(stmt.cond.rhs.value, stmt.then.stmts) for stmt, _ in dispatch_tests(decl)]
    assert len(dict(arms)) == len(arms), "a state has two arms"
    return dict(arms)


def dispatch_states(decl):
    """Number of states the machine's dispatch can select."""
    return len(dispatch_arms(decl))


def dispatch_depth(decl):
    """Deepest nesting of dispatch statements; 1 for a switch, and for a
    threaded machine, which selects in one call."""
    tests = dispatch_tests(decl)
    return max(depth for _, depth in tests) if tests else 1


def select_state(decl, instruction):
    """Run the dispatch as the interpreter would for one instruction
    number; returns the state whose statements run, or None for `return
    null`. In a threaded machine the instruction variable holds state
    k's closure, and an unknown number names no closure."""
    if is_threaded(decl):
        closure = state_closures(decl).get(instruction)
        if closure is None or closure.body.stmts == [Return(NullLit())]:
            return None
        return instruction
    switch = dispatch_switch(decl)
    if switch is not None:
        return instruction if instruction in switch.table else None
    for stmt, _ in dispatch_tests(decl):
        if instruction == stmt.cond.rhs.value:
            return instruction
    return None


def instruction_var(decl):
    """Bound first, or in a threaded factory, called by the machine."""
    if is_threaded(decl):
        return machine_loop(decl).body.stmts[0].value.callee.name
    return decl.body.stmts[0].name


def transfers(decl, stmts):
    """The states that statements hand control to, by state number:
    `_i = k`, or threaded, `_i = _sK`."""
    inst = instruction_var(decl)
    numbers = {let.name: state for state, let in state_lets(decl).items()}
    out = set()
    for stmt in stmts:
        for node in walk(stmt):
            if isinstance(node, Assign) and node.name == inst:
                value = node.value
                out.add(numbers[value.name] if isinstance(value, Var) else value.value)
    return out


def successors(block):
    term = block.terminator
    if isinstance(term, Goto):
        return {term.target}
    if isinstance(term, Branch):
        return {term.then, term.orelse}
    if isinstance(term, YieldTo):
        return {term.resume}
    return {END}


def expected_states(graph, opt):
    """The blocks that are dispatch states. Unoptimized, every block.
    Optimized, the entry, the resume targets, the blocks with two or more
    predecessor edges and the blocks ending in a branch; any other block
    runs in place of the one edge that reaches it."""
    if not opt:
        return set(graph.blocks)
    preds = {bid: 0 for bid in graph.blocks}
    resumes = set()
    for block in graph.blocks.values():
        for target in successors(block) - {END}:
            preds[target] += 1
        if isinstance(block.terminator, Branch) and block.terminator.then == block.terminator.orelse:
            preds[block.terminator.then] += 1  # both arms are edges
        if isinstance(block.terminator, YieldTo):
            resumes.add(block.terminator.resume)
    return (
        {graph.entry}
        | resumes
        | {bid for bid, n in preds.items() if n >= 2}
        | {bid for bid, b in graph.blocks.items() if isinstance(b.terminator, Branch)}
    ) - {END}


def region_exits(graph, states, bid):
    """The states (and END) that control reaches from block `bid` before
    it meets another state: the successors of its inlined region."""
    out, seen = set(), set()
    stack = list(successors(graph.blocks[bid]))
    while stack:
        target = stack.pop()
        if target == END or target in states:
            out.add(target)
        elif target not in seen:
            seen.add(target)
            stack.extend(successors(graph.blocks[target]))
    return out


def check_arms_follow_the_cfg(decl, opt):
    machine = rewrite_generator(decl, opt)
    graph, plan = plan_generator(decl, opt)
    arms = dispatch_arms(machine)
    states = expected_states(graph, opt)
    assert sorted(arms) == plan.states == sorted(states)
    for state in states:
        assert transfers(machine, arms[state]) == region_exits(graph, states, state), state
    # Every branch is emitted once, as an `if` whose arms transfer, and
    # an arm holds no branch, so no block is copied and nothing nests
    # deeper. The other `if`s are the ones the blocks keep whole.
    inst = instruction_var(machine)

    def transfers_control(node):
        return any(
            isinstance(n, Return) or isinstance(n, Assign) and n.name == inst
            for n in outside_closures(node)
        )

    ifs = [
        node for stmts in arms.values() for stmt in stmts for node in walk(stmt)
        if isinstance(node, If)
    ]
    branches = [node for node in ifs if transfers_control(node)]
    assert len(branches) == sum(isinstance(b.terminator, Branch) for b in graph.blocks.values())
    for node in branches:
        assert not any(
            isinstance(n, If) and transfers_control(n) for n in walk(node) if n is not node
        )
    kept = [
        node for block in graph.blocks.values() for stmt in block.stmts
        for node in walk(stmt) if isinstance(node, If)
    ]
    assert len(ifs) == len(branches) + len(kept)
    return machine


def test_simple_coroutine_two_state_machine():
    program = parse_source(SIMPLE_COROUTINE)
    machine = rewrite_generator(program.decls[0], True)
    expected = parse_source(SIMPLE_MACHINE + "fn main() { }").decls[0]
    assert machine == expected


def test_fib_three_state_machine():
    program = parse_source(FIB_SOURCE)
    machine = rewrite_generator(program.decls[0], True)
    expected = parse_source(FIB_MACHINE + "fn main() { }").decls[0]
    assert machine == expected


def test_receive_lowered_file_golden():
    program = parse_source(RECEIVE_SOURCE)
    expected = GOLDEN_DIR.joinpath("receive.lowered.mini").read_text()
    assert print_source(transform_program(program, True)) == expected


TALLY_SOURCE = """
fn* tally(start) {
  let total = start
  let round = 0
  while (round < 3) {
    let add = yield total
    if (add == null) {
      total = total
    } else {
      total = total + add
    }
    round = round + 1
  }
  return total
}
fn main() { }
"""

# many-short's receiver: the null test holds no yield, so state 4 keeps it
# whole and runs `round = round + 1` after it; the states are 1, 2 and 4
# of the 5 merged blocks.
TALLY_MACHINE = """
fn tally(start) {
  let _i = 1
  let total = null
  let round = null
  let add = null
  return fn (_r) {
    while (true) {
      if (_i == 1) {
        total = start
        round = 0
        _i = 2
      } else {
        if (_i == 2) {
          if (round < 3) {
            _i = 4
            return total
          } else {
            _i = 0
            return total
          }
        } else {
          if (_i == 4) {
            add = _r
            if (add == null) {
              total = total
            } else {
              total = total + add
            }
            round = round + 1
            _i = 2
          } else {
            return null
          }
        }
      }
    }
  }
}
"""


def test_tally_join_runs_after_its_if():
    decl = parse_source(TALLY_SOURCE).decls[0]
    graph, plan = plan_generator(decl, True)
    assert plan.states == [1, 2, 4] and len(graph.blocks) == 5
    assert [type(stmt) for stmt in graph.blocks[4].stmts] == [If, Assign]
    expected = parse_source(TALLY_MACHINE + "fn main() { }").decls[0]
    assert rewrite_generator(decl, True) == expected


def test_an_if_without_else_keeps_no_else():
    # joins.rounds' `if (total < 0)` holds no yield, so it stays whole and
    # prints as in the source, without `else`.
    program = parse_source((CORPUS_DIR / "joins.mini").read_text())
    text = print_source(transform_program(program))
    assert "if (total < 0) {\n              total = 0 - total\n            }\n" in text
    assert "} else {\n            }" not in text


def test_fib_state_counts():
    program = parse_source(FIB_SOURCE)
    assert dispatch_states(rewrite_generator(program.decls[0], True)) == 3
    assert dispatch_states(rewrite_generator(program.decls[0], False)) == 4


def test_state_count_equals_merged_block_count():
    # Optimized, the blocks of the merged optimized CFG that stay states;
    # unoptimized, every block of the unmerged CFG.
    counts = {}
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        for decl in program.decls:
            if not decl.is_generator:
                continue
            machine = rewrite_generator(decl, True)
            merged = merge_blocks(build_cfg(decl, True))
            states = len(expected_states(merged, True))
            assert dispatch_states(machine) == states, decl.name
            machine_noopt = rewrite_generator(decl, False)
            assert dispatch_states(machine_noopt) == len(build_cfg(decl).blocks)
            counts[f"{path.stem}.{decl.name}"] = (states, len(merged.blocks))
    assert counts == EXPECTED_STATE_COUNTS


# (dispatch states, merged blocks) of every corpus generator, optimized.
EXPECTED_STATE_COUNTS = {
    "const_false.filtered": (3, 4),
    "early_return.until_negative": (2, 4),
    "empty_gen.nothing": (1, 1),
    "exhaust.trio": (3, 3),
    "fib.fib": (3, 3),
    "helper_driver.squares": (3, 3),
    "if_in_loop.signed": (4, 6),
    "interleave.counter": (3, 3),
    "joins.rounds": (3, 5),
    "joins.kept": (3, 6),
    "nested_next.inner": (3, 3),
    "nested_next.outer": (3, 4),
    "nested_while.grid": (4, 7),
    "print_inside.chatty": (2, 2),
    "receive.pair": (2, 2),
    "switch.counter": (3, 4),
    "tally.tally": (3, 3),
    "two_gens.ones": (1, 1),
    "two_gens.doubler": (3, 3),
    "yield_branches.pick": (2, 4),
}


def test_empty_generator_machine():
    program = parse_source("fn* nothing() { } fn main() { }")
    machine = rewrite_generator(program.decls[0])
    expected = parse_source(
        """
fn nothing() {
  let _i = 1
  return fn (_r) {
    while (true) {
      if (_i == 1) {
        _i = 0
        return null
      } else {
        return null
      }
    }
  }
}
fn main() { }
"""
    ).decls[0]
    assert machine == expected


def test_rewrite_requires_generator():
    program = parse_source("fn main() { }")
    with pytest.raises(TransformError):
        rewrite_generator(program.decls[0])


def test_transform_program_replaces_only_generators():
    program = parse_source(FIB_SOURCE)
    lowered = transform_program(program)
    assert lowered.decls[1] == program.decls[1]  # main untouched
    assert not any(d.is_generator for d in lowered.decls)
    assert lowered.entry == program.entry


def test_no_yields_or_generators_in_output():
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        for opt in (True, False):
            lowered = transform_program(program, opt)
            assert not any(d.is_generator for d in lowered.decls)
            for decl in lowered.decls:
                for node in walk(decl.body):
                    assert not isinstance(node, (YieldStmt, LetYield)), path.name


def test_identity_on_generator_free_programs():
    program = parse_source("fn helper(x) { return x } fn main() { print(helper(1)) }")
    assert transform_program(program) == program


def test_two_generators_get_distinct_fresh_names():
    program = parse_source(
        "fn* a() { yield 1 } fn* b() { yield 2 } fn main() { }"
    )
    lowered = transform_program(program)
    fresh = []
    for decl in lowered.decls[:2]:
        inst = decl.body.stmts[0].name
        resume = decl.body.stmts[-1].value.params[0]
        fresh += [inst, resume]
    assert len(set(fresh)) == 4, fresh


def test_fresh_names_avoid_source_identifiers():
    program = parse_source(
        "fn* g() { let _i = 1 let _r = 2 yield _i + _r } fn main() { }"
    )
    machine = rewrite_generator(program.decls[0])
    inst = machine.body.stmts[0].name
    resume = machine.body.stmts[-1].value.params[0]
    assert inst not in ("_i", "_r") and resume not in ("_i", "_r")
    assert inst != resume
    lowered = transform_program(program)
    assert interp(lowered) == interp_native(program)


def test_determinism():
    program = parse_source(FIB_SOURCE)
    once = print_source(transform_program(program))
    twice = print_source(transform_program(program))
    assert once == twice


def test_exhausted_machines_are_stable():
    program = parse_source("fn* trio() { yield 1 yield 2 yield 3 } fn main() { }")
    lowered = transform_program(program)
    script = [None] * 103
    seq = resume_sequence(lowered, "trio", [], script)
    assert seq[:3] == [1, 2, 3]
    assert seq[3:] == [None] * 100


def test_return_value_becomes_final_result_then_null():
    program = parse_source("fn* once() { yield 1 return 9 } fn main() { }")
    lowered = transform_program(program)
    assert resume_sequence(lowered, "once", [], [None] * 4) == [1, 9, None, None]
    assert resume_sequence(program, "once", [], [None] * 4) == [1, 9, None, None]


def test_a_closure_reads_the_last_receiver_in_every_lowered_form():
    # `let r = yield 1` resumes into an empty finish: its block must still
    # bind r, which the closure yielded earlier reads after the generator
    # has finished. The first-order form rejects the closure.
    program = parse_source(
        "fn* g() { let r = 0 let f = fn () { return r } yield f let r = yield 1 } "
        "fn main() { let it = g() let f = next(it) next(it) next(it, 42) print(f()) }"
    )
    for opt in (True, False):
        assert interp_native(transform_program(program, opt)) == [42], opt
    assert interp_native(program) == [42]
    with pytest.raises(DefuncError, match="nested closure"):
        defunctionalize(transform_program(program))


def test_plan_shape():
    program = parse_source(FIB_SOURCE)
    graph, plan = plan_generator(program.decls[0], True)
    assert plan.states == [1, 2, 3]
    assert plan.hoisted == ["a", "b", "c"]
    assert plan.states == sorted(graph.blocks) == list(range(1, len(graph.blocks) + 1))
    assert plan.inst_var != plan.resume_param


def test_small_machines_keep_the_chain():
    # Up to CHAIN_MAX states the dispatch is the paper's if/else-if chain,
    # one test per state; above it, a switch. Each arm's two yields run in
    # place, so `arms` arms make arms + 1 states.
    for arms, states in ((3, 4), (4, 5)):
        machine = rewrite_generator(parse_source(wide_source(arms, 1)).decls[0])
        assert dispatch_states(machine) == states
        assert len(dispatch_tests(machine)) == (states if states <= CHAIN_MAX else 0)
        assert (dispatch_switch(machine) is None) == (states <= CHAIN_MAX)
    assert CHAIN_MAX == 4


def test_dispatch_tree_selects_every_state():
    # 21 and 62 states by a switch, 81 and 242 threaded; optimized, the
    # ids of the blocks that run in place select nothing.
    for arms in (20, 80):
        decl = parse_source(wide_source(arms, 1)).decls[0]
        for opt in (True, False):
            machine = rewrite_generator(decl, opt)
            graph, plan = plan_generator(decl, opt)
            assert is_threaded(machine) == (arms == 80)
            assert len(plan.states) == (arms + 1 if opt else 3 * arms + 2)
            for state in plan.states:
                assert select_state(machine, state) == state
            inlined = set(graph.blocks) - set(plan.states)
            assert len(inlined) == (2 * arms if opt else 0)
            for unknown in (0, plan.states[-1] + 1, -1, *inlined):
                assert select_state(machine, unknown) is None


def test_switch_dispatch_is_one_statement_at_any_size(monkeypatch):
    # A switch at every size, the two above SWITCH_MAX included, so the
    # dispatch is measured on the switch and not on a threaded machine:
    # one statement whose labels are the states, however many there are.
    monkeypatch.setattr(transform, "SWITCH_MAX", 480 + 1)
    for arms in (30, 60, 120, 240, 480):
        decl = parse_source(wide_source(arms, 1)).decls[0]
        machine = rewrite_generator(decl)
        assert not is_threaded(machine)
        assert dispatch_states(machine) == arms + 1
        assert dispatch_depth(machine) == 1
        assert list(dispatch_switch(machine).table) == plan_generator(decl)[1].states


@pytest.mark.parametrize("switch_max", [SWITCH_MAX, CHAIN_MAX])
def test_arms_follow_the_cfg(monkeypatch, switch_max):
    # Each state's arm hands control to the states its inlined region
    # leads to and to no other, in every scheme; at CHAIN_MAX every
    # machine above it is threaded: 6 corpus generators and the wide one.
    monkeypatch.setattr(transform, "SWITCH_MAX", switch_max)
    decls = [parse_source(wide_source(50, 1)).decls[0]]
    for path in CORPUS_FILES:
        decls += [d for d in parse_source(path.read_text()).decls if d.is_generator]
    threaded = set()
    for decl in decls:
        for opt in (True, False):
            machine = check_arms_follow_the_cfg(decl, opt)
            if is_threaded(machine):
                threaded.add(decl.name)
    assert len(threaded) == (1 if switch_max == SWITCH_MAX else 7)


def yields_source(count):
    """A generator of `count` yields in a row: `count` states optimized."""
    body = "".join(f"  yield {k}\n" for k in range(1, count + 1))
    return f"fn* g() {{\n{body}}}\n\nfn main() {{\n}}\n"


@pytest.mark.parametrize("states", [SWITCH_MAX, SWITCH_MAX + 1])
def test_threaded_dispatch_starts_above_switch_max(states):
    program = parse_source(yields_source(states))
    decl = program.decls[0]
    machine = rewrite_generator(decl)
    assert dispatch_states(machine) == states == len(merge_blocks(build_cfg(decl)).blocks)
    assert is_threaded(machine) == (states > SWITCH_MAX)
    assert (dispatch_switch(machine) is None) == (states > SWITCH_MAX)
    forms = cli.program_forms(program)
    lifted = {d.name for d in forms["first-order"].decls} - {"apply", "g_fo", "g", "main"}
    assert len(lifted) == (states + 1 if states > SWITCH_MAX else 0)  # the sink too
    script = [None] * (states + 2)
    expected = list(range(1, states + 1)) + [None, None]
    for name, form in forms.items():
        assert resume_sequence(form, "g", [], script) == expected, name


SIMPLE_THREADED_MACHINE = """
fn f(n) {
  let _k = {}
  let _s0 = fn (_r) {
    return null
  }
  let _s1 = fn (_r) {
    _i = _s2
    return n
  }
  let _s2 = fn (_r) {
    x = _r
    _i = _s0
    return n + x
  }
  let _i = _s1
  let x = null
  return fn (_r) {
    while (true) {
      let _v = _i(_r)
      if (_v != _k) {
        return _v
      }
    }
  }
}
"""


def test_simple_coroutine_threaded_machine(monkeypatch):
    monkeypatch.setattr(transform, "SWITCH_MAX", 0)
    machine = rewrite_generator(parse_source(SIMPLE_COROUTINE).decls[0])
    expected = parse_source(SIMPLE_THREADED_MACHINE + "fn main() { }").decls[0]
    assert machine == expected


def test_threaded_loop_without_a_yield_stays_a_loop():
    # 100,000 iterations without a yield: the state closures return the
    # sentinel to the machine's loop, so the Python stack never grows.
    assert sys.getrecursionlimit() <= 1000
    yields = "".join(f"  yield {k}\n" for k in range(SWITCH_MAX))
    source = (
        "fn* g() {\n  let n = 0\n  while (n < 100000) {\n    n = n + 1\n  }\n"
        f"  yield n\n{yields}}}\n\nfn main() {{\n  let it = g()\n  print(next(it))\n}}\n"
    )
    forms = cli.program_forms(parse_source(source))
    assert is_threaded(forms["lowered-opt"].decls[0])
    for name in ("native", "lowered-opt", "first-order"):
        assert Interpreter(forms[name]).run() == [100_000], name


def test_threaded_machine_yields_records():
    # Records compare by identity, so no yielded `{}` is the sentinel.
    yields = "".join("  yield {}\n" for _ in range(SWITCH_MAX))
    program = parse_source(f"fn* g() {{\n  yield null\n{yields}}}\n\nfn main() {{\n}}\n")
    assert is_threaded(transform_program(program).decls[0])
    script = [None] * (SWITCH_MAX + 3)
    for name, form in cli.program_forms(program).items():
        seq = resume_sequence(form, "g", [], script)
        assert seq[0] is None and seq[-2:] == [None, None], name
        records = seq[1:-2]
        assert len(records) == SWITCH_MAX
        assert all(type(v) is Record and v.fields == {} for v in records), name


def check_wide_family_at_the_default_recursion_limit(arms, tmp_path, capsys):
    # Every recursive pass (print_source, parse, defunctionalize, the
    # interpreter) walks the dispatch, so it has to nest shallowly enough
    # for Python's default stack.
    assert sys.getrecursionlimit() <= 1000
    source = wide_source(arms, 30)
    program = parse_source(source)
    lowered = transform_program(program)
    first_order = defunctionalize(lowered)
    for form in (lowered, first_order):
        text = print_source(form)
        assert print_source(parse_source(text)) == text
    # diff runs and traces all four forms, lowered-noopt's 3 * arms + 2
    # states too.
    path = tmp_path / f"wide{arms}.mini"
    path.write_text(source)
    assert cli.main(["diff", str(path)]) == 0
    assert capsys.readouterr().err.strip().endswith(": OK")


def test_two_hundred_arms_at_the_default_recursion_limit(tmp_path, capsys):
    check_wide_family_at_the_default_recursion_limit(200, tmp_path, capsys)


def test_eight_hundred_arms_at_the_default_recursion_limit(tmp_path, capsys):
    # deep-states' size: 2,402 blocks before merging.
    check_wide_family_at_the_default_recursion_limit(800, tmp_path, capsys)


def guards_source(count):
    """A generator of `count` flat `if (x == k) { return k }` guards, then
    a yield: each guard is a state, its finish runs in place."""
    guards = "".join(f"  if (x == {k}) {{\n    return {k}\n  }}\n" for k in range(count))
    return (
        f"fn* g(x) {{\n{guards}  yield x\n  return 0 - x\n}}\n\n"
        "fn main() {\n  let a = g(2999)\n  print(next(a))\n  print(next(a))\n"
        "  let b = g(5000)\n  print(next(b))\n  print(next(b))\n  print(next(b))\n}\n"
    )


def test_three_thousand_flat_guards_stay_flat(tmp_path, capsys):
    # Inlining only blocks that end without a branch keeps each guard's
    # finish in its arm and the next guard a state, so the machine does
    # not nest 3,000 levels deep.
    assert sys.getrecursionlimit() <= 1000
    source = guards_source(3000)
    program = parse_source(source)
    graph, plan = plan_generator(program.decls[0], True)
    # 3,000 guard states and the resume target; each finish and the yield
    # run in their guard's arm.
    assert len(plan.states) == 3001 and len(graph.blocks) == 6002
    lowered = transform_program(program)
    assert is_threaded(lowered.decls[0])
    text = print_source(lowered)
    assert print_source(parse_source(text)) == text
    assert Interpreter(program).run() == [2999, None, 5000, -5000, None]
    # diff runs and traces every form against the native run.
    path = tmp_path / "guards.mini"
    path.write_text(source)
    assert cli.main(["diff", str(path)]) == 0
    assert capsys.readouterr().err.strip().endswith(": OK")


def diamonds_source(count):
    """A generator of `count` sequential if/else statements without a
    yield in their arms, then a yield."""
    diamonds = "".join(
        f"  if (x % {k + 2} == 0) {{\n    x = x + {k}\n  }} else {{\n    x = x - 1\n  }}\n"
        for k in range(count)
    )
    return (
        f"fn* g(x) {{\n{diamonds}  yield x\n  return 0 - x\n}}\n\n"
        "fn main() {\n  let a = g(7)\n  print(next(a))\n  print(next(a))\n"
        "  print(next(a))\n}\n"
    )


def test_a_thousand_sequential_diamonds_stay_flat(tmp_path, capsys):
    # No `if` holds a yield, so the entry block keeps all 1,000 whole, and
    # they are one flat sequence of `if`s in the entry state.
    assert sys.getrecursionlimit() <= 1000
    source = diamonds_source(1000)
    program = parse_source(source)
    graph, plan = plan_generator(program.decls[0], True)
    assert plan.states == [1, 2] and len(graph.blocks) == 2
    assert sum(isinstance(stmt, If) for stmt in graph.blocks[1].stmts) == 1000
    lowered = transform_program(program)
    entry_arm = dispatch_arms(lowered.decls[0])[1]
    assert sum(isinstance(stmt, If) for stmt in entry_arm) == 1000
    for form in (lowered, defunctionalize(lowered)):
        text = print_source(form)
        assert print_source(parse_source(text)) == text
    assert Interpreter(lowered).run() == Interpreter(program).run() == [279, -279, None]
    path = tmp_path / "diamonds.mini"
    path.write_text(source)
    assert cli.main(["diff", str(path)]) == 0
    assert capsys.readouterr().err.strip().endswith(": OK")
