"""Interpreter steps per form, pinned exactly.

Step counts are deterministic, so a change to the lowering or to the
interpreter that moves them has to update these numbers on purpose.
"""

import pytest

from corolower import transform
from corolower.cli import program_forms
from corolower.errors import BudgetExceeded
from corolower.interp import Interpreter
from corolower.parser import parse_source
from corolower.transform import BISECT_MAX

from conftest import FIB_SOURCE, wide_source

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
    # 301 states optimized, 302 unoptimized: above BISECT_MAX, so each
    # transition is one call of a state closure or lifted state function.
    nexts = 300
    steps = steps_per_form(wide_source(100, nexts))
    assert steps == {
        "native": 6_924,
        "lowered-opt": 15_956,
        "lowered-noopt": 16_006,
        "first-order": 21_367,
    }
    assert round(steps["lowered-opt"] / nexts, 2) == 53.19


def test_instance_steps_per_dispatch_scheme():
    # A threaded lowered instance makes the sentinel and one closure per
    # state, the sink included: 2 + 2 * 302 + 4 steps at 100 arms. A
    # numbered one, at 42 arms (127 states), sets `_i` and makes the
    # machine. First-order instances build a record either way.
    for arms, expected in (
        (100, {"native": 0, "lowered-opt": 610, "lowered-noopt": 612, "first-order": 7}),
        (42, {"native": 0, "lowered-opt": 4, "lowered-noopt": 4, "first-order": 6}),
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
        (0, (14, 14, 16), (620, 622, 17)),
        (1, (109, 151, 140), (671, 689, 88)),
        (12, (1_210, 1_252, 1_574), (1_232, 1_250, 869)),
        (13, (1_313, 1_347, 1_708), (1_283, 1_301, 940)),
        (300, (30_294, 30_424, 39_443), (15_956, 16_006, 21_367)),
    ],
)
def test_threaded_instance_pays_back_by_nexts(monkeypatch, nexts, numbered, threaded):
    # Whole-run steps of one 100-arm instance resumed `nexts` times, in
    # lowered-opt, lowered-noopt and first-order form, with bisection
    # forced (BISECT_MAX above 302) and with threaded dispatch. A lowered
    # instance makes 302 closures up front and saves about 48 steps per
    # next, so it is dearer up to 12 nexts and cheaper from 13 on; a
    # first-order instance is cheaper from the first next.
    steps = {}
    for bisect_max, scheme in ((302, "numbered"), (BISECT_MAX, "threaded")):
        monkeypatch.setattr(transform, "BISECT_MAX", bisect_max)
        counts = steps_per_form(wide_source(100, nexts))
        steps[scheme] = tuple(counts[form] for form in FORMS[1:])
    assert steps == {"numbered": numbered, "threaded": threaded}


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
