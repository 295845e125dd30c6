"""Interpreter steps per form, pinned exactly.

Step counts are deterministic, so a change to the lowering or to the
interpreter that moves them has to update these numbers on purpose.
"""

import pytest

from corolower import transform
from corolower.cli import program_forms
from corolower.errors import BudgetExceeded
from corolower.interp import Interpreter, resume_any
from corolower.parser import parse_source
from corolower.transform import SWITCH_MAX

from conftest import CORPUS_DIR, FIB_SOURCE, wide_source

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
    # and 302 unoptimized: above SWITCH_MAX, so each transition is one
    # call of a state closure or lifted state function.
    nexts = 300
    steps = steps_per_form(wide_source(100, nexts))
    assert steps == {
        "native": 6_924,
        "lowered-opt": 11_356,
        "lowered-noopt": 16_006,
        "first-order": 15_667,
    }
    assert round(steps["lowered-opt"] / nexts, 2) == 37.85


def test_instance_steps_per_dispatch_scheme():
    # A threaded lowered instance makes the sentinel and one closure per
    # state, the sink included: 2 + 2 * 102 + 4 steps at 100 arms
    # optimized, 2 + 2 * 303 + 4 unoptimized. A numbered one, at 20 arms
    # (21 and 62 states), sets `_i` and makes the machine. First-order
    # instances build a record either way.
    for arms, expected in (
        (100, {"native": 0, "lowered-opt": 210, "lowered-noopt": 612, "first-order": 7}),
        (20, {"native": 0, "lowered-opt": 4, "lowered-noopt": 4, "first-order": 6}),
    ):
        steps = {}
        for name, form in program_forms(parse_source(wide_source(arms, 1))).items():
            interp = Interpreter(form)
            interp.call(interp.globals.lookup("wide"), [0])
            steps[name] = interp.steps
        assert steps == expected, arms


@pytest.mark.parametrize(
    "nexts, numbered, threaded",
    [
        (0, (14, 14, 16), (220, 622, 17)),
        (1, (43, 57, 58), (257, 689, 69)),
        (12, (362, 442, 520), (664, 1_250, 641)),
        (13, (391, 477, 562), (701, 1_301, 693)),
        (300, (8_734, 10_558, 12_644), (11_356, 16_006, 15_667)),
        (11, (333, 407, 478), (627, 1_199, 589)),
    ],
)
def test_threaded_instance_pays_back_by_nexts(monkeypatch, nexts, numbered, threaded):
    # Whole-run steps of one 100-arm instance resumed `nexts` times, in
    # lowered-opt, lowered-noopt and first-order form, with a switch
    # forced (SWITCH_MAX above 302) and with threaded dispatch. A threaded
    # instance never pays back its closures against a switch, in any form:
    # at 300 nexts the switch takes 29.11 steps per next lowered-opt where
    # threading takes 37.85.
    steps = {}
    for switch_max, scheme in ((302, "numbered"), (SWITCH_MAX, "threaded")):
        monkeypatch.setattr(transform, "SWITCH_MAX", switch_max)
        counts = steps_per_form(wide_source(100, nexts))
        steps[scheme] = tuple(counts[form] for form in FORMS[1:])
    assert steps == {"numbered": numbered, "threaded": threaded}


def test_a_switch_dispatch_costs_two_steps_lowered_and_three_first_order():
    # Five yields in a row make five states, so the machine dispatches
    # through a switch. A `next` spends 2 steps on `while (true)`, 2 on
    # `switch (_i)` and 4 on `_i = k + 1` and `return k`; first-order 3 on
    # `switch (_e._i)` and 5 on the state, whose `_e._i = k + 1` reads
    # `_e`. Once finished, the sink 0 runs the switch's `return null`.
    source = "fn* g() { yield 1 yield 2 yield 3 yield 4 yield 5 } fn main() { }"
    forms = program_forms(parse_source(source))
    for form, per_next, at_sink in (
        ("lowered-opt", 8, 6),
        ("lowered-noopt", 8, 6),
        ("first-order", 10, 7),
    ):
        interp = Interpreter(forms[form])
        instance = interp.call(interp.globals.lookup("g"), [])
        spent = []
        for _ in range(7):
            before = interp.steps
            resume_any(interp, instance, None)
            spent.append(interp.steps - before)
        assert spent == [per_next] * 5 + [at_sink] * 2, form


def test_switched_machines_exhaust_the_budget_step_exactly():
    # 21 states optimized and 62 unoptimized, each dispatched by a switch:
    # at every budget short of the full run, the run stops one step past
    # it, having printed a prefix of the full output.
    forms = program_forms(parse_source(wide_source(20, 60)))
    full_steps = {}
    for form in FORMS[1:]:
        interp = Interpreter(forms[form])
        full = interp.run()
        full_steps[form] = interp.steps
        for budget in range(1, full_steps[form]):
            interp = Interpreter(forms[form], budget)
            with pytest.raises(BudgetExceeded):
                interp.run()
            assert full[: len(interp.output)] == interp.output, (form, budget)
            assert interp.steps == budget + 1, (form, budget)
    assert full_steps == {"lowered-opt": 1_774, "lowered-noopt": 2_158, "first-order": 2_564}


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
