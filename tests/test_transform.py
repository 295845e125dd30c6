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
    Return,
    Switch,
    Var,
    While,
    YieldStmt,
    walk,
)
from corolower.transform import (
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
from genfuzz import random_generator_program

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


def machine_loop(decl):
    """The machine's `while (true)`, or None for a switch that no case
    falls through, which is the machine's only statement."""
    ret = decl.body.stmts[-1]
    machine = ret.value
    assert isinstance(machine, FuncLit)
    (loop,) = machine.body.stmts
    if isinstance(loop, Switch):
        return None
    assert isinstance(loop, While) and loop.cond == BoolLit(True)
    return loop


def dispatch_root(decl):
    """The dispatch statement: the body of the machine's `while (true)`,
    or the machine's body where it has no loop."""
    loop = machine_loop(decl)
    if loop is None:
        return decl.body.stmts[-1].value.body.stmts[0]
    assert len(loop.body.stmts) == 1
    return loop.body.stmts[0]


def dispatch_tests(decl):
    """(test, depth) for every `_i == k` test of a chain dispatch; depth
    counts the tests from the root down to and including it. State
    bodies are not entered. A switched machine has none: it selects a
    state in one statement."""
    if isinstance(dispatch_root(decl), Switch):
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
    if not isinstance(dispatch_root(decl), Switch):
        return None
    switch = dispatch_root(decl)
    assert switch.subject == Var(decl.body.stmts[0].name)
    assert switch.orelse == Block([Return(NullLit())])
    return switch


def dispatch_arms(decl):
    """{state: statements run when the dispatch selects it}, in either
    scheme; the sink 0 is no arm."""
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
    """Deepest nesting of dispatch statements; 1 for a switch."""
    tests = dispatch_tests(decl)
    return max(depth for _, depth in tests) if tests else 1


def select_state(decl, instruction):
    """Run the dispatch as the interpreter would for one instruction
    number; returns the state whose statements run, or None for `return
    null`."""
    switch = dispatch_switch(decl)
    if switch is not None:
        return instruction if instruction in switch.table else None
    for stmt, _ in dispatch_tests(decl):
        if instruction == stmt.cond.rhs.value:
            return instruction
    return None


def transfers(decl, stmts):
    """The states that statements hand control to: `_i = k`."""
    inst = decl.body.stmts[0].name
    out = set()
    for stmt in stmts:
        for node in walk(stmt):
            if isinstance(node, Assign) and node.name == inst:
                out.add(node.value.value)
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
        if isinstance(block.terminator, Branch) and block.terminator.then == block.terminator.orelse != END:
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


def jumps(term):
    """The targets of a terminator's goto or branch arms, not of a yield's
    resumption."""
    if isinstance(term, Goto):
        return [term.target]
    if isinstance(term, Branch):
        return [term.then, term.orelse]
    return []


def region_jumps(graph, states, bid):
    """The states that the inlined region of block `bid` jumps to: the
    jumps that fall back into the dispatch."""
    out, seen = set(), set()
    stack = jumps(graph.blocks[bid].terminator)
    while stack:
        target = stack.pop()
        if target in states:
            out.add(target)
        elif target != END and target not in seen:
            seen.add(target)
            stack.extend(jumps(graph.blocks[target].terminator))
    return out


def expected_threads(graph, states):
    """{source: target} for every state whose only incoming jump, over
    all blocks' gotos and branch arms, is the goto ending state `source`."""
    sources = {}
    for bid, block in graph.blocks.items():
        for target in jumps(block.terminator):
            sources.setdefault(target, []).append(bid)
    return {
        found[0]: target
        for target, found in sources.items()
        if target in states
        and len(found) == 1
        and found[0] in states
        and isinstance(graph.blocks[found[0]].terminator, Goto)
    }


def check_arms_follow_the_cfg(decl, opt):
    machine = rewrite_generator(decl, opt)
    graph, plan = plan_generator(decl, opt)
    arms = dispatch_arms(machine)
    states = expected_states(graph, opt)
    assert sorted(arms) == plan.states == sorted(states)
    # Optimized, a switched state whose goto is its target's only jump
    # runs a copy of the target's case in place of `_i = target`; the
    # copy threads no further. The machine keeps its loop only while a
    # jump falls back into the dispatch.
    switched = dispatch_switch(machine) is not None
    threads = expected_threads(graph, states) if opt and switched else {}
    inst = machine.body.stmts[0].name

    def unthreaded(state):
        """The state's statements with `_i = target` in place of a copy."""
        target = threads.get(state)
        if target is None:
            return arms[state]
        return arms[state][: -len(unthreaded(target))] + [Assign(inst, IntLit(target))]

    falls_through = set()
    for state in states:
        exits = region_exits(graph, states, state)
        falls = region_jumps(graph, states, state)
        target = threads.get(state)
        if target is not None:
            assert unthreaded(state)[:-1] + unthreaded(target) == arms[state], state
            exits = exits - {target} | region_exits(graph, states, target)
            falls = falls - {target} | region_jumps(graph, states, target)
        assert transfers(machine, arms[state]) == exits, state
        falls_through |= falls
    assert (machine_loop(machine) is None) == (opt and switched and not falls_through)
    # Every branch is emitted once outside the copies, as an `if` whose
    # arms transfer, and an arm holds no branch, so nothing nests
    # deeper. The other `if`s are the ones the blocks keep whole.
    arms = {state: unthreaded(state) for state in states}

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
    # Up to CHAIN_MAX states unoptimized, and below it optimized, the
    # dispatch is the paper's if/else-if chain, one test per state; above,
    # a switch. Each arm's two yields run in place, so `arms` arms make
    # arms + 1 states optimized and 3 * arms + 2 unoptimized; fib's
    # unoptimized machine has four states.
    assert CHAIN_MAX == 4
    cases = [(wide_source(arms, 1), True, arms + 1, arms < 3) for arms in (2, 3, 4)]
    cases += [(FIB_SOURCE, False, 4, True), (wide_source(1, 1), False, 5, False)]
    for source, opt, states, chained in cases:
        machine = rewrite_generator(parse_source(source).decls[0], opt)
        assert dispatch_states(machine) == states
        assert len(dispatch_tests(machine)) == (states if chained else 0)
        assert (dispatch_switch(machine) is None) == chained


FIVE_YIELDS_MACHINE = """fn g() {
  let _i = 1
  return fn (_r) {
    while (true) {
      switch (_i) case 1 {
      _i = 2
      return 1
      } case 2 {
      _i = 3
      return 2
      } case 3 {
      _i = 4
      return 3
      } case 4 {
      _i = 5
      return 4
      } case 5 {
      _i = 0
      return 5
      } else {
      return null
      }
    }
  }
}
"""


FIVE_YIELDS_LOOP_FREE = """fn g() {
  let _i = 1
  return fn (_r) {
    switch (_i) case 1 {
    _i = 2
    return 1
    } case 2 {
    _i = 3
    return 2
    } case 3 {
    _i = 4
    return 3
    } case 4 {
    _i = 5
    return 4
    } case 5 {
    _i = 0
    return 5
    } else {
    return null
    }
  }
}
"""


def test_five_yields_print_as_one_switch():
    # Each state's statements stand at the switch's own indent. Every case
    # returns, so the optimized machine is the switch alone; unoptimized
    # it keeps its loop.
    for opt in (True, False):
        lowered = transform_program(parse_source(yields_source(5)), opt)
        expected = FIVE_YIELDS_LOOP_FREE if opt else FIVE_YIELDS_MACHINE
        assert print_source(lowered).startswith(expected), opt


def test_dispatch_tree_selects_every_state():
    # 21 and 62 states, 81 and 242, each by a switch; optimized, the ids
    # of the blocks that run in place select nothing.
    for arms in (20, 80):
        decl = parse_source(wide_source(arms, 1)).decls[0]
        for opt in (True, False):
            machine = rewrite_generator(decl, opt)
            graph, plan = plan_generator(decl, opt)
            assert dispatch_switch(machine) is not None
            assert len(plan.states) == (arms + 1 if opt else 3 * arms + 2)
            for state in plan.states:
                assert select_state(machine, state) == state
            inlined = set(graph.blocks) - set(plan.states)
            assert len(inlined) == (2 * arms if opt else 0)
            for unknown in (0, plan.states[-1] + 1, -1, *inlined):
                assert select_state(machine, unknown) is None


def test_switch_dispatch_is_one_statement_at_any_size():
    # One statement whose labels are the states, however many there are.
    for arms in (30, 60, 120, 240, 480):
        decl = parse_source(wide_source(arms, 1)).decls[0]
        machine = rewrite_generator(decl)
        assert dispatch_states(machine) == arms + 1
        assert dispatch_depth(machine) == 1
        assert list(dispatch_switch(machine).table) == plan_generator(decl)[1].states


@pytest.mark.parametrize("chain_max", [CHAIN_MAX, 64])
def test_arms_follow_the_cfg(monkeypatch, chain_max):
    # Each state's arm hands control to the states its inlined region
    # leads to and to no other, in either scheme: at CHAIN_MAX the wide
    # generator and 6 corpus ones switch, at 64 every machine chains but
    # the wide one's 152 unoptimized states, its 51 optimized ones too.
    monkeypatch.setattr(transform, "CHAIN_MAX", chain_max)
    decls = [parse_source(wide_source(50, 1)).decls[0]]
    for path in CORPUS_FILES:
        decls += [d for d in parse_source(path.read_text()).decls if d.is_generator]
    switched = set()
    for decl in decls:
        for opt in (True, False):
            machine = check_arms_follow_the_cfg(decl, opt)
            if dispatch_switch(machine) is not None:
                switched.add(decl.name)
    assert len(switched) == (7 if chain_max == CHAIN_MAX else 1)


def test_the_fuzz_sweeps_thread_and_drop_loops():
    # Of the optimized machines of both fuzz sweeps over seeds 0-299, 69
    # switch; 3 of those run a state in place of its only jump, and 17 have
    # no jump left that falls back into the dispatch, so they drop the
    # loop. check_arms_follow_the_cfg holds each copy to its one jump.
    switched = threaded = loop_free = 0
    for arm_yields in (True, False):
        for seed in range(300):
            decl = random_generator_program(seed, arm_yields)[0].decls[0]
            machine = check_arms_follow_the_cfg(decl, True)
            if dispatch_switch(machine) is not None:
                graph, plan = plan_generator(decl)
                switched += 1
                threaded += bool(expected_threads(graph, set(plan.states)))
                loop_free += machine_loop(machine) is None
    assert (switched, threaded, loop_free) == (69, 3, 17)


DRAIN = """fn* drain(n) {
  n = n + 1
  while (n > 0) {
    let x = yield n
    yield x
    yield n + x
    n = n - x
  }
  return n
}
fn main() { }
"""


def test_a_header_with_two_jumps_keeps_its_loop():
    # The entry's `n = n + 1` and the loop's last state both jump to the
    # loop header, so no state runs in place of a jump, and the entry's
    # jump falls back into the loop of the switch.
    program = parse_source(DRAIN)
    machine = check_arms_follow_the_cfg(program.decls[0], True)
    graph, plan = plan_generator(program.decls[0])
    assert len(plan.states) == 5 and expected_threads(graph, set(plan.states)) == {}
    assert dispatch_switch(machine) is not None and machine_loop(machine) is not None
    assert print_source(transform_program(program)).count("if (n > 0) {") == 1
    # Without its first line, the header is the entry and one state's
    # goto is its only jump: that state runs a copy, and the loop goes.
    program = parse_source(DRAIN.replace("  n = n + 1\n", ""))
    machine = check_arms_follow_the_cfg(program.decls[0], True)
    graph, plan = plan_generator(program.decls[0])
    assert expected_threads(graph, set(plan.states)) == {5: 1}
    assert machine_loop(machine) is None
    assert print_source(transform_program(program)).count("if (n > 0) {") == 2


def test_a_jump_never_runs_a_receiver_in_place():
    # A receiver's state is reached only by its yield's resumption, so no
    # jump runs it in place; `_state_stmts` refuses a threading that would
    # copy its binding into the jumping state.
    decl = parse_source(DRAIN.replace("  n = n + 1\n", "")).decls[0]
    graph, plan = plan_generator(decl)
    receivers = transform._receivers(graph)
    assert receivers == {3: "x"}
    with pytest.raises(AssertionError, match="receiver"):
        transform._state_stmts(graph.blocks[5], receivers, plan, {}, {5: graph.blocks[3]})


def test_a_copy_threads_no_further():
    # A copy is the target's own statements, its jumps setting `_i`, even
    # where the target's own case runs a further state in place. The
    # graph builder makes no such chain of single jumps (none among the
    # switched machines of 40,000 fuzz generators), so it is given here.
    decl = parse_source(DRAIN.replace("  n = n + 1\n", "")).decls[0]
    graph, plan = plan_generator(decl)
    receivers = transform._receivers(graph)
    blocks = graph.blocks
    one = transform._state_stmts(blocks[5], receivers, plan, {}, {5: blocks[1]})
    chain = transform._state_stmts(blocks[5], receivers, plan, {}, {5: blocks[1], 1: blocks[4]})
    assert chain == one


def yields_source(count):
    """A generator of `count` yields in a row: `count` states optimized."""
    body = "".join(f"  yield {k}\n" for k in range(1, count + 1))
    return f"fn* g() {{\n{body}}}\n\nfn main() {{\n}}\n"


@pytest.mark.parametrize("states", [64, 65])
def test_machines_switch_on_either_side_of_64_states(states):
    # On either side of 64, where a threaded dispatch once took over, a
    # machine switches with no loop, as every case returns, and its
    # first-order form lifts nothing but its machine.
    program = parse_source(yields_source(states))
    decl = program.decls[0]
    machine = rewrite_generator(decl)
    assert dispatch_states(machine) == states == len(merge_blocks(build_cfg(decl)).blocks)
    assert list(dispatch_switch(machine).table) == list(range(1, states + 1))
    assert machine_loop(machine) is None
    forms = cli.program_forms(program)
    assert [d.name for d in forms["first-order"].decls] == ["apply", "g_fo", "g", "main"]
    script = [None] * (states + 2)
    expected = list(range(1, states + 1)) + [None, None]
    for name, form in forms.items():
        assert resume_sequence(form, "g", [], script) == expected, name


SIMPLE_SWITCHED_MACHINE = """
fn f(n) {
  let _i = 1
  let x = null
  return fn (_r) {
    switch (_i) case 1 {
    _i = 2
    return n
    } case 2 {
    x = _r
    _i = 0
    return n + x
    } else {
    return null
    }
  }
}
"""


def test_simple_coroutine_switched_machine(monkeypatch):
    # With CHAIN_MAX 0 the two-state coroutine switches, each case body
    # prints at the switch's own indent, and since both cases return the
    # machine is the switch alone, with no `while (true)`.
    monkeypatch.setattr(transform, "CHAIN_MAX", 0)
    lowered = transform_program(parse_source(SIMPLE_COROUTINE))
    machine = lowered.decls[0]
    expected = parse_source(SIMPLE_SWITCHED_MACHINE + "fn main() { }").decls[0]
    assert machine == expected
    assert print_source(lowered).startswith(SIMPLE_SWITCHED_MACHINE.lstrip())


def test_threaded_loop_without_a_yield_stays_a_loop():
    # Named for the threaded scheme, whose states returned a sentinel to
    # the machine's loop: 100,000 iterations without a yield run in the
    # switch's `while (true)`, or optimized in a case's own `while`, so
    # the Python stack never grows.
    assert sys.getrecursionlimit() <= 1000
    yields = "".join(f"  yield {k}\n" for k in range(64))
    source = (
        "fn* g() {\n  let n = 0\n  while (n < 100000) {\n    n = n + 1\n  }\n"
        f"  yield n\n{yields}}}\n\nfn main() {{\n  let it = g()\n  print(next(it))\n}}\n"
    )
    forms = cli.program_forms(parse_source(source))
    assert dispatch_switch(forms["lowered-noopt"].decls[0]) is not None
    for name, form in forms.items():
        assert Interpreter(form).run() == [100_000], name


def test_switched_machine_yields_records():
    # A loop-free switched machine of 100 states yields fresh records.
    yields = "".join("  yield {}\n" for _ in range(99))
    program = parse_source(f"fn* g() {{\n  yield null\n{yields}}}\n\nfn main() {{\n}}\n")
    machine = transform_program(program).decls[0]
    assert len(dispatch_switch(machine).cases) == 100
    assert machine_loop(machine) is None
    script = [None] * 102
    for name, form in cli.program_forms(program).items():
        seq = resume_sequence(form, "g", [], script)
        assert seq[0] is None and seq[-2:] == [None, None], name
        records = seq[1:-2]
        assert len(records) == 99 and len({id(v) for v in records}) == 99, name
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
    assert list(dispatch_switch(lowered.decls[0]).table) == plan.states
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
