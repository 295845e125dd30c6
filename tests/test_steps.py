"""Interpreter steps per form, pinned exactly.

Step counts are deterministic, so a change to the lowering or to the
interpreter that moves them has to update these numbers on purpose.
"""

import pytest

from corolower.cli import diff_forms, program_forms
from corolower.errors import BudgetExceeded, InterpError
from corolower.interp import _STMT, Interpreter, resume_any, resume_sequence
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import Print

from conftest import CORPUS_DIR, CORPUS_FILES, FIB_SOURCE, outcome, wide_source

FORMS = ("native", "lowered-opt", "lowered-noopt", "first-order")


def steps_per_form(source):
    steps = {}
    for name, form in program_forms(parse_source(source)).items():
        interp = Interpreter(form)
        interp.run()
        steps[name] = interp.steps
    return steps


def test_fib_steps_per_next():
    nexts = 20_000
    source = FIB_SOURCE.replace("while (i < 10)", f"while (i < {nexts})")
    assert source != FIB_SOURCE
    steps = steps_per_form(source)
    assert steps == {
        "native": 460_005,
        "lowered-opt": 980_007,
        "lowered-noopt": 1_420_003,
        "first-order": 1_459_998,
    }
    assert [round(steps[form] / nexts) for form in FORMS] == [23, 49, 71, 73]


def test_hundred_arm_family_steps_per_next():
    # 101 states optimized, each arm's two yields inlined into its branch,
    # and 302 unoptimized, each machine dispatched by one switch. The
    # optimized loop's only jump back, `i = i + 1` into the entry, runs the
    # entry's statements in place, so its machine has no `while (true)`:
    # 27.07 steps per next lowered-opt where the loop spent 29.11 and the
    # threaded dispatch that took machines of more than 64 states 37.85.
    nexts = 300
    steps = steps_per_form(wide_source(100, nexts))
    assert steps == {
        "native": 6_924,
        "lowered-opt": 8_122,
        "lowered-noopt": 10_558,
        "first-order": 12_028,
    }
    assert round(steps["lowered-opt"] / nexts, 2) == 27.07


def test_instance_steps_per_dispatch_scheme():
    # A lowered instance sets `_i` and makes the machine, at 100 arms
    # (101 and 302 states) as at 20 (21 and 62); a first-order one builds
    # its record. The threaded dispatch once spent 2 + 2 * 102 + 4 steps
    # at 100 arms optimized, on a sentinel and a closure per state.
    for arms, expected in (
        (100, {"native": 0, "lowered-opt": 4, "lowered-noopt": 4, "first-order": 6}),
        (20, {"native": 0, "lowered-opt": 4, "lowered-noopt": 4, "first-order": 6}),
    ):
        steps = {}
        for name, form in program_forms(parse_source(wide_source(arms, 1))).items():
            interp = Interpreter(form)
            interp.call(interp.globals.lookup("wide"), [0])
            steps[name] = interp.steps
        assert steps == expected, arms


@pytest.mark.parametrize(
    "nexts, switched, ceiling",
    [
        (0, (14, 14, 16), (220, 622, 17)),
        (1, (41, 57, 56), (257, 689, 69)),
        (12, (338, 442, 496), (664, 1_250, 641)),
        (13, (365, 477, 536), (701, 1_301, 693)),
        (300, (8_122, 10_558, 12_028), (11_356, 16_006, 15_667)),
        (11, (311, 407, 456), (627, 1_199, 589)),
    ],
)
def test_switched_instance_steps_by_nexts(nexts, switched, ceiling):
    # Whole-run steps of one 100-arm instance resumed `nexts` times, in
    # lowered-opt, lowered-noopt and first-order form. `switched` is the
    # switch's, and `ceiling` what the threaded dispatch spent before it
    # was deleted: it never paid back its closures against the switch, in
    # any form, and the switch must stay below it. The optimized machine
    # has no loop: lowered-opt and first-order, a `next` saves its 2 steps
    # and each jump back after `i = i + 1` 6 more, for `_i = 1`, the loop
    # and the switch.
    counts = steps_per_form(wide_source(100, nexts))
    steps = tuple(counts[form] for form in FORMS[1:])
    assert steps == switched
    assert all(s < t for s, t in zip(steps, ceiling))


def test_a_switch_dispatch_costs_two_steps_lowered_and_three_first_order():
    # Five yields in a row make five states, so the machine dispatches
    # through a switch. A `next` spends 2 steps on `switch (_i)` and 4 on
    # `_i = k + 1` and `return k`; first-order 3 on `switch (_e._i)` and 5
    # on the state, whose `_e._i = k + 1` reads `_e`. Every case returns,
    # so the optimized machine has no loop; unoptimized, `while (true)`
    # costs 2 steps more. Once finished, the sink 0 runs the switch's
    # `return null`.
    source = "fn* g() { yield 1 yield 2 yield 3 yield 4 yield 5 } fn main() { }"
    forms = program_forms(parse_source(source))
    for form, per_next, at_sink in (
        ("lowered-opt", 6, 4),
        ("lowered-noopt", 8, 6),
        ("first-order", 8, 5),
    ):
        interp = Interpreter(forms[form])
        instance = interp.call(interp.globals.lookup("g"), [])
        spent = []
        for _ in range(7):
            before = interp.steps
            resume_any(interp, instance, None)
            spent.append(interp.steps - before)
        assert spent == [per_next] * 5 + [at_sink] * 2, form


def exhaust_at(forms, form, budgets):
    """Run `form` at each budget short of its full run: each run stops one
    step past its budget, having printed a prefix of the full output.
    Returns the full run's steps."""
    interp = Interpreter(forms[form])
    full = interp.run()
    for budget in budgets(interp.steps):
        partial = Interpreter(forms[form], budget)
        with pytest.raises(BudgetExceeded):
            partial.run()
        assert full[: len(partial.output)] == partial.output, (form, budget)
        assert partial.steps == budget + 1, (form, budget)
    return interp.steps


# How a machine with no `while (true)` starts, as printed.
LOOP_FREE = "return fn (_r) {\n    switch (_i)"


def test_switched_machines_exhaust_the_budget_step_exactly():
    # 21 states optimized and 62 unoptimized at every budget; 101 and 302,
    # switched where the threaded dispatch used to take over above 64, at
    # about 150 budgets sampled across each run and the last one. Both
    # optimized machines are loop-free switches (the entry's statements
    # run in place of the jump back), both unoptimized ones loop; at 60
    # nexts of 20 arms the loop-free machine jumps back twice.
    forms = program_forms(parse_source(wide_source(20, 60)))
    assert LOOP_FREE in print_source(forms["lowered-opt"])
    assert LOOP_FREE not in print_source(forms["lowered-noopt"])
    full_steps = {form: exhaust_at(forms, form, lambda n: range(1, n)) for form in FORMS[1:]}
    assert full_steps == {"lowered-opt": 1_642, "lowered-noopt": 2_158, "first-order": 2_428}

    def sampled(n):
        return [*range(1, n, 1 + n // 150), n - 1]

    forms = program_forms(parse_source(wide_source(100, 30)))
    assert LOOP_FREE in print_source(forms["lowered-opt"])
    full_steps = {form: exhaust_at(forms, form, sampled) for form in FORMS[1:]}
    assert full_steps == {"lowered-opt": 824, "lowered-noopt": 1_072, "first-order": 1_216}


DRAIN_SOURCE = """fn* drain(n) {
  while (n > 0) {
    let x = yield n
    if (x == null) {
      x = 1
    }
    yield x
    yield n + x
    n = n - x
  }
  return n
}

fn main() {
  let g = drain(20)
  let i = 0
  while (i < 30) {
    print(next(g, i % 4))
    i = i + 1
  }
}
"""


def test_a_receiver_binding_is_never_copied():
    # Optimized, drain has 4 states: the loop header 1, the receiver 3
    # that binds x, and the resumptions 4 and 5. State 5's `n = n - x` is
    # the header's only jump, so case 5 runs the header's statements in
    # place of `_i = 1`, and the machine has no loop. The copy resumes at
    # state 3, which binds x in its own case only. At the loop's 886
    # steps lowered-opt and 1,302 first-order, a `next` spent 2 steps
    # more and each of the 9 jumps back 6 more.
    forms = program_forms(parse_source(DRAIN_SOURCE))
    text = print_source(forms["lowered-opt"])
    assert LOOP_FREE in text
    assert text.count("x = _r") == 1
    assert text.count("if (n > 0) {") == 2
    assert steps_per_form(DRAIN_SOURCE) == {
        "native": 626,
        "lowered-opt": 772,
        "lowered-noopt": 1_006,
        "first-order": 1_170,
    }
    assert diff_forms(forms, 100, 10_000_000) == []
    full_steps = {form: exhaust_at(forms, form, lambda n: range(1, n, 7)) for form in FORMS}
    assert full_steps == steps_per_form(DRAIN_SOURCE)


TALLY_SOURCE = """fn* tally(start) {
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

fn main() {
  let i = 0
  while (i < 1000) {
    let t = tally(i * 7919 + 104729)
    print(next(t))
    print(next(t, i * 31 - 1000003))
    print(next(t))
    print(next(t, i - 4099))
    print(next(t, i))
    i = i + 1
  }
}
"""


def test_many_short_tally_steps_per_next():
    # 1,000 three-round receivers resumed five times each. Optimized, the
    # null test holds no yield and stays one statement of state 4, before
    # `round = round + 1`, and the yield and the finish run in place of
    # their branch arm, so the machine has 3 states (1, 2 and 4) of its 5
    # blocks. Merging finds no goto chain here, and unoptimized the
    # machine has all 8 blocks of the split graph, so it dispatches
    # through a switch, 2 steps per transition.
    nexts = 5_000
    steps = steps_per_form(TALLY_SOURCE)
    assert steps == {
        "native": 102_006,
        "lowered-opt": 238_006,
        "lowered-noopt": 232_006,
        "first-order": 339_006,
    }
    assert steps["lowered-noopt"] / nexts == 46.4012
    per_next = [round(steps[form] / nexts, 2) for form in FORMS]
    assert per_next == [20.40, 47.60, 46.40, 67.80]



def test_joins_corpus_steps():
    # `kept` finishes from a branch arm. Optimized, that arm selects the
    # sink and returns null in place, so the `next` that finishes
    # `kept(0)` skips a pass of the dispatch, the `==` tests of states 1,
    # 4 and 5: 14 steps fewer lowered-opt and 17 first-order than an arm
    # that sets `_i = 0` and falls back into the dispatch, which is what
    # the unoptimized machine still does. Unoptimized, its machines have
    # 13 and 8 states and dispatch through a switch.
    steps = steps_per_form((CORPUS_DIR / "joins.mini").read_text())
    assert steps == {
        "native": 383,
        "lowered-opt": 779,
        "lowered-noopt": 803,
        "first-order": 1_135,
    }

@pytest.mark.parametrize(
    "name, steps",
    [
        ("if_in_loop", {"native": 195, "lowered-opt": 323, "lowered-noopt": 363, "first-order": 466}),
        ("nested_while", {"native": 206, "lowered-opt": 324, "lowered-noopt": 388, "first-order": 477}),
    ],
)
def test_four_state_optimized_machines_switch(name, steps):
    # Optimized, `signed` and `grid` have four states and dispatch through
    # a switch, 2 steps per transition, where a chain of four tests spent
    # 511 and 508 steps lowered-opt and 691 and 698 first-order.
    # Unoptimized, their 6 and 7 states switched already.
    assert steps_per_form((CORPUS_DIR / f"{name}.mini").read_text()) == steps


@pytest.mark.parametrize("name", ["if_in_loop", "nested_while"])
def test_four_state_switches_exhaust_the_budget_step_exactly(name):
    # The optimized four-state switch and its first-order form, at every
    # budget short of the full run.
    forms = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))
    for form in ("lowered-opt", "first-order"):
        exhaust_at(forms, form, lambda n: range(1, n))


INNER_LOOP_SOURCE = """fn* sums(n) {
  let k = 0
  while (true) {
    let s = 0
    let i = 0
    while (i < n) {
      s = s + i
      i = i + 1
    }
    k = k + 1
    yield s + k
  }
}

fn main() {
  let g = sums(50)
  let j = 0
  while (j < 200) {
    print(next(g))
    j = j + 1
  }
}
"""


def test_inner_loop_steps():
    # The inner `while` holds no yield, so optimized it stays a loop inside
    # the one state that yields, and no iteration passes the dispatch:
    # lowered-opt spends 1.6 % more steps than native (2.31 times as many
    # when the loop was split into states), first-order 201,832 instead of
    # 405,832. Unoptimized, every iteration still passes the dispatch, a
    # switch over 6 states.
    steps = steps_per_form(INNER_LOOP_SOURCE)
    assert steps == {
        "native": 125_812,
        "lowered-opt": 127_830,
        "lowered-noopt": 250_628,
        "first-order": 201_832,
    }
    assert Interpreter(parse_source(INNER_LOOP_SOURCE)).run()[:3] == [1226, 1227, 1228]


FIB_VALUES = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


@pytest.mark.parametrize(
    "form, steps, at_100, at_50",
    [
        ("native", 235, [0, 1, 1, 2], [0, 1]),
        ("lowered-opt", 497, [0, 1], [0]),
        ("lowered-noopt", 713, [0], []),
        ("first-order", 728, [0], []),
    ],
)
def test_budget_exhaustion_is_step_exact(form, steps, at_100, at_50):
    program = program_forms(parse_source(FIB_SOURCE))[form]
    interp = Interpreter(program, steps)
    assert interp.run() == FIB_VALUES
    assert interp.steps == steps
    for budget, printed in ((steps - 1, FIB_VALUES), (100, at_100), (50, at_50)):
        interp = Interpreter(program, budget)
        with pytest.raises(BudgetExceeded):
            interp.run()
        assert interp.output == printed, budget
        assert interp.steps == budget + 1


# -- the budget oracle ----------------------------------------------------------
#
# A check at every node stops a run at the step after its budget. So at
# budget b a run must end by exhaustion with steps == b + 1, having
# printed what its full run had printed by step b; at or past the step E
# where the full run ends, it must end as that run did: the same output,
# error (kind, message and position) and steps. The steps of each print
# come from one full run, through a print handler that logs them, so the
# oracle does not depend on where the interpreter checks its budget.

DIVIDE_SOURCE = """fn* g(n) {
  while (true) {
    yield 10 / n
    n = n - 1
  }
}

fn main() {
  let a = g(3)
  let i = 0
  while (i < 5) {
    print(next(a))
    i = i + 1
  }
}
"""

# A bare unbound name in a generator's body does not defunctionalize; a
# reference to a missing function fails at run time in every form.
UNBOUND_SOURCE = (
    "fn* h(n) { yield n yield &missing } fn main() { let a = h(1) print(next(a)) print(next(a)) }"
)


def assert_every_budget_exact(monkeypatch, program):
    """Check program's outcome at every budget against its full run, and
    return the error that run ended in."""
    printed_at = []
    print_stmt = _STMT[Print]

    def logged(it, stmt, env):
        print_stmt(it, stmt, env)
        printed_at.append(it.steps)

    with monkeypatch.context() as patch:
        patch.setitem(_STMT, Print, logged)
        output, error, steps = outcome(program, 10_000_000)
    assert len(printed_at) == len(output)
    for budget in range(1, steps + 3):
        seen = [value for at, value in zip(printed_at, output) if at <= budget]
        if budget < steps:
            ending = ((BudgetExceeded, "step budget exceeded", None, None), budget + 1)
        else:
            ending = (error, steps)
        assert outcome(program, budget) == (seen, *ending), budget
    return error


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_every_budget_ends_as_a_check_at_every_node_would(monkeypatch, path, form):
    program = program_forms(parse_source(path.read_text()))[form]
    assert assert_every_budget_exact(monkeypatch, program) is None


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize(
    "source, error, steps",
    [
        (DIVIDE_SOURCE, ("division by zero", 3, 14), (82, 146, 214, 211)),
        (UNBOUND_SOURCE, ("unbound name 'missing'", 1, 26), (14, 38, 38, 64)),
        # A field fault is raised at the step its access or assignment
        # always was, whether the record is read in place from a variable
        # (every `r.a` below) or not.
        (
            "fn* g(r) { yield r.a yield r.b } "
            "fn main() { let s = g({ a: 1 }) print(next(s)) print(next(s)) }",
            ("record has no field 'b'", 1, 29),
            (17, 41, 41, 68),
        ),
        (
            "fn* g(x) { yield x x.f = 2 yield x } "
            "fn main() { let s = g(1) print(next(s)) print(next(s)) }",
            ("field assignment on a non-record value", 1, 20),
            (14, 36, 36, 62),
        ),
        (
            "fn main() { print(1) print(q.f) }",
            ("unbound name 'q'", 1, 28),
            (5, 5, 5, 5),
        ),
    ],
    ids=["divide", "unbound", "missing-field", "field-set-on-int", "unbound-record"],
)
def test_every_budget_ends_before_or_in_the_error(monkeypatch, source, error, steps, form):
    program = program_forms(parse_source(source))[form]
    assert assert_every_budget_exact(monkeypatch, program) == (InterpError, *error)
    assert outcome(program, 10_000_000)[2] == steps[FORMS.index(form)]


@pytest.mark.parametrize(
    "source",
    [
        "fn main() { while (true) { } }",
        "fn* g() { while (true) { } } fn main() { print(next(g())) }",
        "fn f(n) { return f(n + 1) } fn main() { print(f(0)) }",
    ],
    ids=["loop", "loop-in-generator", "recursion"],
)
def test_an_endless_run_ends_by_budget(source):
    # The recursion spends 6 steps and 3 Python frames a level, so 300
    # steps stay far below Python's stack limit. main is called directly,
    # so run's handling of a stack overflow past the budget plays no part.
    for form, program in program_forms(parse_source(source)).items():
        it = Interpreter(program, 300)
        with pytest.raises(BudgetExceeded):
            it.call(it.globals.lookup("main"), [])
        assert (it.output, it.steps) == ([], 301), form


@pytest.mark.parametrize("form", FORMS)
def test_a_direct_resumption_ends_by_budget(form):
    source = "fn* g() { yield 1 while (true) { } } fn main() { }"
    program = program_forms(parse_source(source))[form]
    it = Interpreter(program, 200)
    instance = it.call(it.globals.lookup("g"), [])
    assert resume_any(it, instance, None) == 1
    with pytest.raises(BudgetExceeded):
        resume_any(it, instance, None)
    assert it.steps == 201


@pytest.mark.parametrize("form", FORMS)
def test_a_direct_resumption_returns_nothing_past_the_budget(form):
    # Resumed directly, with no call or print around it, an instance
    # returns a value only within the budget, and its error past the
    # budget is exhaustion: g(0) yields 0, then divides by zero.
    source = "fn* g(n) { yield n yield 10 / n } fn main() { }"
    program = program_forms(parse_source(source))[form]

    def resumed(budget):
        it = Interpreter(program, budget)
        results = []
        try:
            instance = it.call(it.globals.lookup("g"), [0])
            while True:
                results.append((resume_any(it, instance, None), it.steps))
        except InterpError as err:
            return results, type(err), str(err), it.steps

    results, kind, error, steps = resumed(10_000_000)
    assert ([r[0] for r in results], kind) == ([0], InterpError)
    assert error == "division by zero (line 1, col 29)"
    for budget in range(1, steps + 2):
        seen = [r for r in results if r[1] <= budget]
        if budget < steps:
            ending = (BudgetExceeded, "step budget exceeded", budget + 1)
        else:
            ending = (InterpError, error, steps)
        assert resumed(budget) == (seen, *ending), budget


def test_a_trace_that_overflows_the_stack_past_the_budget_ends_by_it():
    # Evaluating a 1,000-term chain recurses once per term: past a budget
    # of 100 the overflow is the budget's, within the default budget the
    # stack's.
    program = parse_source("fn* g(x) { yield " + " + ".join(["x"] * 1000) + " } fn main() { }")
    with pytest.raises(BudgetExceeded, match="^resumption 0: step budget exceeded$"):
        resume_sequence(program, "g", [1], [None], 100)
    with pytest.raises(RecursionError):
        resume_sequence(program, "g", [1], [None])
