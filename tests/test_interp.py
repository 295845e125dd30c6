import importlib
import sys
from collections import Counter

import pytest

from corolower import transform
from corolower.cli import program_forms
from corolower.errors import BudgetExceeded, InterpError, ValidationError
from corolower.interp import (
    Env,
    Interpreter,
    Record,
    interp,
    interp_native,
    render_output,
    render_value,
    resume_sequence,
)
from corolower.parser import parse_source
from corolower.syntax import Block, If, NullLit, Program, Return, Switch, walk
from corolower.transform import transform_program

from conftest import CORPUS_DIR, CORPUS_FILES, FIB_SOURCE, RECEIVE_SOURCE, outcome, wide_source

# The package exports the function `interp` under the module's name.
interp_module = importlib.import_module("corolower.interp")

# Expected fib prefix, frozen from a hand trace of a=0, b=1;
# yield a; c=a; a=b; b=c+a.
FIB_FIRST_TEN = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_fib_first_ten():
    program = parse_source(FIB_SOURCE)
    assert interp_native(program) == FIB_FIRST_TEN


def test_receive_program_output():
    program = parse_source(RECEIVE_SOURCE)
    # Hand trace: yield 5; x=3; yield 8; fall off; exhausted.
    assert interp_native(program) == [5, 8, None, None]


def test_trace_fib_ten_nulls():
    program = parse_source(FIB_SOURCE)
    assert resume_sequence(program, "fib", [], [None] * 10) == FIB_FIRST_TEN


def test_trace_receive():
    program = parse_source(RECEIVE_SOURCE)
    assert resume_sequence(program, "pair", [5], [None, 3]) == [5, 8]
    # One more resumption finishes it; the ones after that produce null too.
    assert resume_sequence(program, "pair", [5], [None, 3, None, None]) == [5, 8, None, None]


def test_trace_empty_generator():
    program = parse_source("fn* nothing() { } fn main() { }")
    assert resume_sequence(program, "nothing", [], [None, None]) == [None, None]


def test_trace_return_value_recorded():
    program = parse_source("fn* once() { return 7 } fn main() { }")
    assert resume_sequence(program, "once", [], [None, None]) == [7, None]


def test_next_on_non_resumable():
    program = parse_source("fn main() { print(next(42)) }")
    with pytest.raises(InterpError, match="non-resumable"):
        interp_native(program)


def test_next_on_closure_is_application():
    program = parse_source(
        "fn main() { let f = fn (x) { return x } print(next(f, 9)) print(next(f)) }"
    )
    assert interp_native(program) == [9, None]


def test_first_resumption_value_discarded():
    program = parse_source("fn* g() { yield 1 } fn main() { }")
    assert resume_sequence(program, "g", [], [99]) == [1]


def test_instantiation_is_lazy():
    program = parse_source(
        "fn* g() { print(1) yield 2 } fn main() { let x = g() print(0) print(next(x)) }"
    )
    assert interp_native(program) == [0, 1, 2]


def test_exhausted_generator_returns_null():
    program = parse_source("fn* g() { yield 1 } fn main() { }")
    assert resume_sequence(program, "g", [], [None] * 4) == [1, None, None, None]


INT_MAX, INT_MIN = 2**63 - 1, -(2**63)
# The language has no negative literal: INT_MIN is written as a difference.
MIN_TEXT = f"(0 - {INT_MAX} - 1)"


def printed_in_every_form(body):
    """What `fn main() { body }` prints, one list per form."""
    forms = program_forms(parse_source(f"fn main() {{ {body} }}"))
    return {name: interp(program) for name, program in forms.items()}


def test_wrapping_addition():
    # (2^63 - 1) + 1 wraps to -2^63; -(2^63 - 1) - 2 wraps back to 2^63 - 1.
    # Results exactly at either end do not wrap.
    printed = printed_in_every_form(
        f"print({INT_MAX} + 1) print(0 - {INT_MAX} - 2) "
        f"print({INT_MAX - 1} + 1) print((0 - {INT_MAX}) + (0 - 1)) "
        f"print({MIN_TEXT} - 1) print({INT_MAX} - (0 - 1)) print({MIN_TEXT} + {INT_MAX})"
    )
    expected = [INT_MIN, INT_MAX, INT_MAX, INT_MIN, INT_MAX, INT_MIN, -1]
    assert printed == dict.fromkeys(printed, expected)
    assert len(printed) == 4


def test_wrapping_multiplication_and_negation():
    printed = printed_in_every_form(
        f"print({2**62} * 2) print(-{MIN_TEXT}) "
        f"print({MIN_TEXT} * (0 - 1)) print({INT_MAX} * {INT_MAX}) "
        f"print((0 - {2**62}) * 2) print({INT_MAX} * 1) print({MIN_TEXT} * 2) "
        f"print({MIN_TEXT} / (0 - 1)) print({MIN_TEXT} % (0 - 1)) print({MIN_TEXT} % 3)"
    )
    expected = [INT_MIN, INT_MIN, INT_MIN, 1, INT_MIN, INT_MAX, 0, INT_MIN, 0, -2]
    assert printed == dict.fromkeys(printed, expected)
    assert len(printed) == 4


def test_division_truncates_toward_zero():
    program = parse_source(
        "fn main() { print(7 / 2) print((0 - 7) / 2) print(7 % 2) print((0 - 7) % 2) }"
    )
    assert interp_native(program) == [3, -3, 1, -1]


def test_division_by_zero():
    with pytest.raises(InterpError, match="division by zero"):
        interp_native(parse_source("fn main() { print(1 / 0) }"))
    with pytest.raises(InterpError, match="modulo by zero"):
        interp_native(parse_source("fn main() { print(1 % 0) }"))


def operand_text(value):
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    if value == INT_MIN:
        return MIN_TEXT
    return str(value) if value >= 0 else f"(0 - {-value})"


def expected_binary(op, a, b):
    """a op b by Python's own arithmetic: `/` and `%` truncate toward zero,
    `+ - * / %` wrap to 64 bits, and `==` never holds across types."""
    if op in ("==", "!="):
        return (type(a) is type(b) and a == b) == (op == "==")
    if op in ("&&", "||"):
        return (a and b) if op == "&&" else (a or b)
    if op in ("<", "<=", ">", ">="):
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    quotient = a // b if b else None
    if quotient is not None and quotient < 0 and quotient * b != a:
        quotient += 1  # Python's `//` floors; the language truncates
    if op in ("/", "%"):
        value = quotient if op == "/" else a - quotient * b
    else:
        value = {"+": a + b, "-": a - b, "*": a * b}[op]
    return (value - INT_MIN) % 2**64 + INT_MIN


INT_PAIRS = [
    (7, 7), (0, 0), (INT_MIN, INT_MAX), (INT_MAX, INT_MIN), (INT_MIN, INT_MIN),
    (INT_MAX, INT_MAX), (INT_MIN, -1), (INT_MAX, 1), (INT_MIN, 1), (-1, INT_MIN),
    (-7, 2), (7, -2), (-7, -2), (2, 7), (0, 5), (5, 0), (-5, 0),
]
# Each pair with the operators it is evaluated under; `/` and `%` by zero
# raise (test_division_by_zero_in_every_form).
BINARY_CASES = [
    *[
        (op, a, b)
        for a, b in INT_PAIRS
        for op in ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=")
        if b != 0 or op not in "/%"
    ],
    *[
        (op, a, b)
        for a, b in [(1, True), (True, 1), (0, False), (None, None), (None, 0), (0, None),
                     (True, True), (True, False), (None, False), (False, None)]
        for op in ("==", "!=")
    ],
    *[(op, a, b) for a in (True, False) for b in (True, False) for op in ("&&", "||")],
]


def binary_program(cases, lhs_var, rhs_var):
    """A generator that yields a op b for each case, each operand read from
    a parameter when its flag is set and written as a literal otherwise,
    and a main that prints every result."""
    params, args, yields = [], [], []
    for index, (op, a, b) in enumerate(cases):
        operands = []
        for side, value, is_var in (("a", a, lhs_var), ("b", b, rhs_var)):
            if is_var:
                params.append(f"{side}{index}")
                args.append(operand_text(value))
            operands.append(params[-1] if is_var else operand_text(value))
        yields.append(f"  yield {operands[0]} {op} {operands[1]}\n")
    return (
        f"fn* ops({', '.join(params)}) {{\n{''.join(yields)}}}\n\n"
        f"fn main() {{\n  let g = ops({', '.join(args)})\n  let n = 0\n"
        f"  while (n < {len(cases)}) {{\n    print(next(g))\n    n = n + 1\n  }}\n}}\n"
    )


@pytest.mark.parametrize("rhs_var", [True, False], ids=["rhs-var", "rhs-literal"])
@pytest.mark.parametrize("lhs_var", [True, False], ids=["lhs-var", "lhs-literal"])
def test_every_binary_operator_on_both_operand_paths_in_every_form(lhs_var, rhs_var):
    # `_binary` reads a `Var` or `IntLit` operand in place and any other
    # through its handler. Negative operands are `0 - n`, never literals,
    # and a first-order variable is a field of `_e`.
    forms = program_forms(parse_source(binary_program(BINARY_CASES, lhs_var, rhs_var)))
    expected = [expected_binary(*case) for case in BINARY_CASES]
    printed = {name: Interpreter(program).run() for name, program in forms.items()}
    assert printed == dict.fromkeys(forms, expected)
    assert len(printed) == 4


@pytest.mark.parametrize("rhs_var", [True, False], ids=["rhs-var", "rhs-literal"])
@pytest.mark.parametrize("lhs_var", [True, False], ids=["lhs-var", "lhs-literal"])
@pytest.mark.parametrize("op, message", [("/", "division by zero"), ("%", "modulo by zero")])
def test_division_by_zero_in_every_form(op, message, lhs_var, rhs_var):
    forms = program_forms(parse_source(binary_program([(op, 7, 0)], lhs_var, rhs_var)))
    for name, program in forms.items():
        with pytest.raises(InterpError) as err:
            Interpreter(program).run()
        assert err.value.message == message, name


def test_equality_never_crosses_types():
    program = parse_source(
        "fn main() { print(0 == false) print(null == 0) print(null == null) print(1 == 1) }"
    )
    assert interp_native(program) == [False, False, True, True]


def test_short_circuit():
    program = parse_source(
        "fn main() { print(false && 1 / 0 == 0) print(true || 1 / 0 == 0) }"
    )
    assert interp_native(program) == [False, True]


def test_condition_must_be_boolean():
    with pytest.raises(InterpError, match="boolean"):
        interp_native(parse_source("fn main() { if (1) { } }"))


def test_unbound_name():
    with pytest.raises(InterpError, match="unbound"):
        interp_native(parse_source("fn main() { print(zig) }"))


def test_assignment_to_undeclared():
    with pytest.raises(InterpError, match="undeclared"):
        interp_native(parse_source("fn main() { zig = 1 }"))


def test_locals_are_function_scoped_and_prebound():
    # `let` inside a branch is a frame slot, like the hoisted machine form.
    program = parse_source(
        "fn main() { if (false) { let x = 1 } print(x) }"
    )
    assert interp_native(program) == [None]


def test_budget_exceeded():
    program = parse_source("fn main() { while (true) { } }")
    with pytest.raises(BudgetExceeded):
        interp_native(program, step_budget=5_000)


def test_interp_rejects_generators():
    program = parse_source("fn* g() { yield 1 } fn main() { }")
    with pytest.raises(ValidationError):
        interp(program)
    lowered = transform_program(program)
    assert interp(lowered) == []


def test_runtime_error_carries_position():
    program = parse_source("fn main() {\n  print(1 / 0)\n}")
    with pytest.raises(InterpError) as err:
        interp_native(program)
    assert err.value.line == 2


def test_trace_error_carries_resumption_index():
    program = parse_source("fn* g() { yield 1 yield 1 / 0 } fn main() { }")
    with pytest.raises(InterpError) as err:
        resume_sequence(program, "g", [], [None, None])
    assert str(err.value) == "resumption 1: division by zero (line 1, col 27)"


def test_trace_budget_error_keeps_its_kind():
    program = parse_source("fn* g() { yield 1 while (true) { } } fn main() { }")
    with pytest.raises(BudgetExceeded, match="resumption 1: step budget exceeded"):
        resume_sequence(program, "g", [], [None, None], 5_000)


def test_generator_reentrancy_rejected():
    program = parse_source(
        "fn* g() { let me = yield 1 yield next(me) } fn main() { }"
    )
    with pytest.raises(InterpError, match="already running"):
        instance_script = [None, None]
        # Feed the instance to itself on the second resumption.
        from corolower.interp import Interpreter

        it = Interpreter(program)
        factory = it.globals.lookup("g")
        inst = it.call(factory, [])
        it.resume(inst, None)
        it.resume(inst, inst)


def test_records_and_funcrefs():
    program = parse_source(
        """
fn add(a, b) { return a + b }

fn main() {
  let r = { op: &add, bias: 5 }
  r.bias = r.bias + 1
  print(r.op(2, r.bias))
}
"""
    )
    assert interp_native(program) == [8]


def test_missing_record_field():
    with pytest.raises(InterpError, match="no field"):
        interp_native(parse_source("fn main() { let r = { a: 1 } print(r.b) }"))


def test_funcref_to_unknown_name():
    with pytest.raises(InterpError, match="unbound"):
        interp_native(parse_source("fn main() { let r = &nope }"))


def entered_frames(program):
    """How many times a full run of program enters each function of the
    interpreter module, by name, counted with sys.setprofile."""
    code_file = interp_module.__file__
    entered = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == code_file:
            entered[frame.f_code.co_name] += 1

    it = Interpreter(program)
    sys.setprofile(count)
    try:
        it.run()
    finally:
        sys.setprofile(None)
    return entered


def test_the_hot_path_enters_no_helper_frame():
    # The interpreter frames of a whole run, per form (native, lowered-opt,
    # lowered-noopt, first-order). A node costs at most its handler's
    # frame: no form enters an arithmetic wrapper, a boolean test or a
    # comprehension. A `Var` or `IntLit` operand read in place costs none,
    # and neither do the `true`, `if` and `switch` of a machine's dispatch
    # loop. Entering `_var` and `_literal` for every leaf and `_literal`,
    # `_if` or `_switch` on every pass of the loop, these runs took fib
    # 262 / 361 / 431 / 450 frames and tally 100 / 160 / 215 / 203.
    helpers = {"wrap64", "_bool", "<lambda>", "<listcomp>", "<dictcomp>"}
    for name, frames in (("fib", (150, 198, 238, 336)), ("tally", (71, 101, 110, 163))):
        forms = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))
        entered = {form: entered_frames(program) for form, program in forms.items()}
        assert {form: helpers & set(calls) for form, calls in entered.items()} == dict.fromkeys(
            forms, set()
        ), name
        assert tuple(sum(calls.values()) for calls in entered.values()) == frames, name


def test_render_output_one_value_per_line():
    program = parse_source("fn main() { print(0) print(true) print(null) }")
    assert render_output(interp_native(program)) == "0\ntrue\nnull\n"


def test_render_value_forms():
    assert render_value(-(2**63)) == str(-(2**63))
    assert render_value(False) == "false"
    assert render_value(None) == "null"


def test_render_value_of_records():
    # Records render from a stack, so depth costs no Python frames; a
    # record that contains itself has no rendering and raises as the
    # recursion that rendered records before did.
    assert render_value(Record({})) == "{}"
    assert render_value(Record({"a": 1, "b": Record({"c": None})})) == "{ a: 1, b: { c: null } }"
    shared = Record({"x": True})
    assert render_value(Record({"p": shared, "q": Record({"r": shared}), "e": Record({})})) == (
        "{ p: { x: true }, q: { r: { x: true } }, e: {} }"
    )
    deep = Record({})
    for _ in range(10_000):
        deep = Record({"n": deep})
    assert render_value(deep) == "{ n: " * 10_000 + "{}" + " }" * 10_000
    looped = Record({"n": None})
    looped.fields["n"] = Record({"m": looped})
    with pytest.raises(RecursionError):
        render_value(looped)


def test_dispatch_tables_cover_the_ast():
    # A node kind missing from a table would fail only when first run.
    from corolower import syntax
    from corolower.interp import _EXPR, _STMT

    def node_kinds(base):
        return {
            cls
            for cls in vars(syntax).values()
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base
        }

    assert set(_EXPR) == node_kinds(syntax.Expr) == syntax.EXPRESSIONS
    assert set(_STMT) == node_kinds(syntax.Stmt)


def test_not_and_a_right_operand_that_decides():
    program = parse_source(
        "fn main() { print(!true) print(!false) print(true && false) print(true && true)"
        " print(false || true) print(false || false) }"
    )
    assert interp_native(program) == [False, True, False, True, True, False]


@pytest.mark.parametrize("operands", ["true && 7", "false || 7"])
def test_right_operand_must_be_boolean(operands):
    source = f"fn main() {{ print({operands}) }}"
    with pytest.raises(InterpError) as err:
        interp_native(parse_source(source))
    col = source.index("7") + 1
    assert str(err.value) == f"expected a boolean, got 7 (line 1, col {col})"


def test_function_references_compare_by_name():
    program = parse_source(
        "fn f() { } fn g() { } fn main() { print(&f == &f) print(&f != &g) print(&f == &g) print(&f != &f) }"
    )
    assert interp_native(program) == [True, True, False, False]


def test_print_shows_functions_and_generator_instances():
    program = parse_source(
        "fn f() { } fn* g() { yield 1 } fn main() { print(&f) print(f) print(fn () { }) print(g()) }"
    )
    assert render_output(interp_native(program)) == "&f\n<fn f>\n<fn>\n<generator g>\n"


# -- dispatch chains ------------------------------------------------------------
#
# `_if` runs the head of a dispatch chain through `_arm` when it can: one
# lookup in the jump table built with the head (syntax.If). Every outcome
# must be the one of the step-by-step tests: the
# printed prefix, the error's kind, message and position, and the steps
# charged.


def outcomes_with_and_without_arms(monkeypatch, program, budgets):
    """The outcome at each budget with `_arm` on, for each budget whether
    each call of `_arm` took an arm, and the outcomes with `_arm` off."""
    visits = []
    arm = interp_module._arm

    def counted(it, stmt, env):
        found = arm(it, stmt, env)
        visits[-1].append(found is not None)
        return found

    monkeypatch.setattr(interp_module, "_arm", counted)
    with_arms = []
    for budget in budgets:
        visits.append([])
        with_arms.append(outcome(program, budget))
    monkeypatch.setattr(interp_module, "_arm", lambda it, stmt, env: None)
    without = [outcome(program, budget) for budget in budgets]
    monkeypatch.undo()
    return with_arms, visits, without


def taken(visits):
    return sum(map(sum, visits))


def full_steps(program):
    it = Interpreter(program)
    it.run()
    return it.steps


def arm_of(stmt, **bindings):
    """What `_arm` picks for stmt with only these names bound."""
    return interp_module._arm(Interpreter(Program([])), stmt, Env(None, bindings))


@pytest.mark.parametrize("form", ["lowered-opt", "lowered-noopt", "first-order"])
@pytest.mark.parametrize("name", ["fib", "receive", "tally", "exhaust"])
def test_dispatch_arms_keep_every_budget_exact(monkeypatch, name, form):
    program = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))[form]
    steps = full_steps(program)
    budgets = range(1, steps + 1)
    with_arms, visits, without = outcomes_with_and_without_arms(monkeypatch, program, budgets)
    assert with_arms == without
    assert with_arms[-1][1:] == (None, steps)
    assert all(error[0] is BudgetExceeded for _, error, _ in with_arms[:-1])
    # At the full budget every visit of a dispatch chain takes an arm, the
    # visits that find the sink 0 included: exhaust's six `next`s resume
    # the three states and then the sink three times. Tally's unoptimized
    # machine has 8 states and dispatches through a switch instead.
    assert all(visits[-1])
    assert bool(visits[-1]) == ((name, form) != ("tally", "lowered-noopt"))
    if name == "exhaust":
        assert len(visits[-1]) == 6


def test_dispatch_of_a_switched_machine(monkeypatch):
    # 21 states optimized and 62 unoptimized: one switch whose labels are
    # the states, and no `if` that heads a dispatch chain, so `_arm` takes
    # nothing. Budgets every 11 steps land all over the run.
    source = parse_source(wide_source(20, 60))
    for name, program in program_forms(source).items():
        if name == "native":
            continue
        steps = full_steps(program)
        budgets = [*range(1, steps, 11), steps]
        with_arms, visits, without = outcomes_with_and_without_arms(monkeypatch, program, budgets)
        assert taken(visits) == 0, name
        assert with_arms == without, name
        assert with_arms[-1][1:] == (None, steps), name
        (switch,) = [n for n in walk(program) if type(n) is Switch]
        states = transform.plan_generator(source.decls[0], name != "lowered-noopt")[1].states
        assert list(switch.table) == states, name
        assert switch.orelse == Block([Return(NullLit())]), name


@pytest.mark.parametrize(
    "subject, printed, steps",
    [
        ("1", [1], 4),
        ("4", [4], 4),
        ("0", [9], 4),
        ("2", [9], 4),
        ("true", [9], 4),
        ("false", [9], 4),
        ("null", [9], 4),
        ("{ i: 1 }", [9], 5),
        ("s + 3", [4], 6),
    ],
)
def test_switch_runs_the_case_of_an_int_label(subject, printed, steps):
    # `let s = 1` takes 2 steps, then 1 for the switch, its subject's and
    # the case's, here a print of a literal, 2 steps. Only an integer
    # selects a case, so `true` runs the else and not case 1.
    cases = "case 1 { print(1) } case 4 { print(4) }"
    program = parse_source(f"fn main() {{ let s = 1 switch ({subject}) {cases} else {{ print(9) }} }}")
    it = Interpreter(program)
    assert it.run() == printed
    assert it.steps == 2 + steps
    without_else = parse_source(f"fn main() {{ let s = 1 switch ({subject}) {cases} }}")
    assert interp_native(without_else) == ([] if printed == [9] else printed)


@pytest.mark.parametrize(
    "init, selector",
    [
        ("null", "s"),
        ("true", "s"),
        ("{ i: 1 }", "s"),
        ("0", "s"),
        ("2", "nope"),
        ("{ j: 2 }", "s.i"),
        ("2", "s.i"),
        ("{ i: null }", "s.i"),
        ("{ i: false }", "s.i"),
        ("{ i: 0 }", "s.i"),
        ("{ i: 3 }", "s.i"),
        ("3", "s"),
        ("1", "s"),
        ("{ i: 4 }", "s.i"),
    ],
)
@pytest.mark.parametrize("op", ["==", "<"])
def test_dispatch_arms_fall_back_on_any_other_selector(monkeypatch, init, selector, op):
    # Null, a boolean, a record, an unbound name, a missing field and a
    # field of a non-record: the tests run one by one, so errors and steps
    # stay those of each test. Any integer, a literal of the chain or
    # another value, takes its arm at any budget: the budget is checked at
    # the prints after it. A `<` test heads no chain, so its tests always
    # run one by one.
    source = f"""fn main() {{
  let s = {init}
  print(7)
  if ({selector} {op} 1) {{
    print(1)
  }} else {{
    if ({selector} {op} 4) {{
      print(4)
    }} else {{
      print(5)
    }}
  }}
  print(8)
}}"""
    program = parse_source(source)
    budgets = range(1, 30)
    with_arms, visits, without = outcomes_with_and_without_arms(monkeypatch, program, budgets)
    assert with_arms == without
    ints = {"s": ("0", "1", "3"), "s.i": ("{ i: 0 }", "{ i: 3 }", "{ i: 4 }")}
    assert (taken(visits) > 0) == (op == "==" and init in ints.get(selector, ()))


def test_fib_dispatch_arms():
    # Each `_i == k` test is 4 steps (if, ==, _i, k) lowered and 5
    # first-order (`_e._i` reads a field too). The table is built with the
    # chain; the sink 0 passes all three tests to the `return null`.
    forms = program_forms(parse_source(FIB_SOURCE))
    for form, cost in (("lowered-opt", 4), ("first-order", 5)):
        head = next(n for n in walk(forms[form]) if type(n) is If and n.dispatch is not None)
        chain = [head]
        while len(chain) < 3:
            chain.append(chain[-1].orelse.stmts[0])
        name, field, table, other = head.dispatch
        assert (name, field) == (("_i", None) if cost == 4 else ("_e", "_i")), form
        assert table == {k: (test.then, cost * k) for k, test in zip((1, 2, 3), chain)}, form
        assert other == (chain[-1].orelse, cost * 3), form
        assert chain[-1].orelse.stmts == [Return(NullLit())]

        def select(k):
            return arm_of(head, **{name: k if field is None else Record({field: k})})

        for k, test in zip((1, 2, 3), chain):
            assert select(k) == (test.then, cost * k), form
        assert select(0) == other, form


@pytest.mark.parametrize("init, printed", [("1", [1]), ("2", [2]), ("5", [])])
def test_a_dispatch_chain_takes_the_first_test_of_a_literal(monkeypatch, init, printed):
    program = parse_source(
        f"""fn main() {{
  let s = {init}
  if (s == 1) {{ print(1) }} else {{ if (s == 2) {{ print(2) }} else {{ if (s == 1) {{ print(3) }} }} }}
  print(9)
}}"""
    )
    first = program.decls[0].body.stmts[1]
    second = first.orelse.stmts[0]
    third = second.orelse.stmts[0]
    assert first.dispatch == ("s", None, {1: (first.then, 4), 2: (second.then, 8)}, (None, 12))
    assert second.dispatch[2:] == ({2: (second.then, 4), 1: (third.then, 8)}, (None, 8))
    budgets = range(1, full_steps(program) + 1)
    with_arms, visits, without = outcomes_with_and_without_arms(monkeypatch, program, budgets)
    assert with_arms == without
    assert with_arms[-1][0] == printed + [9]
    assert all(visits[-1]) and len(visits[-1]) == 1


@pytest.mark.parametrize("init, printed", [("1", [1]), ("2", [2]), ("0", []), ("true", [])])
def test_a_dispatch_chain_whose_last_if_has_no_else(monkeypatch, init, printed):
    # Any other integer passes both tests and runs nothing: 8 steps. A
    # boolean runs the tests one by one, so each `if` asks `_arm` in vain.
    program = parse_source(
        f"""fn main() {{
  let s = {init}
  if (s == 1) {{ print(1) }} else {{ if (s == 2) {{ print(2) }} }}
  print(9)
}}"""
    )
    first = program.decls[0].body.stmts[1]
    second = first.orelse.stmts[0]
    assert first.dispatch == ("s", None, {1: (first.then, 4), 2: (second.then, 8)}, (None, 8))
    assert second.dispatch == ("s", None, {2: (second.then, 4)}, (None, 4))
    assert arm_of(first, s=0) == (None, 8)
    budgets = range(1, full_steps(program) + 1)
    with_arms, visits, without = outcomes_with_and_without_arms(monkeypatch, program, budgets)
    assert with_arms == without
    assert with_arms[-1][0] == printed + [9]
    assert visits[-1] == ([False, False] if init == "true" else [True])


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_running_leaves_every_dispatch_table_as_built(path):
    for form, program in program_forms(parse_source(path.read_text())).items():
        heads = [n for n in walk(program) if type(n) is If and n.dispatch is not None]
        built = [(n.dispatch, dict(n.dispatch[2])) for n in heads]
        Interpreter(program).run()
        for head, (dispatch, table) in zip(heads, built):
            assert head.dispatch is dispatch and dispatch[2] == table, form


def test_a_dispatch_tree_stops_at_any_other_statement():
    # Only an arm that is one `==` test on the same selector continues the
    # chain, and the table holds every test of the chain from the start.
    program = parse_source(
        """fn main() {
  let s = 2
  let t = 2
  if (s == 1) { if (t == 1) { print(1) } } else { if (s == 2) { print(2) } print(3) }
  if (s == 3) { if (s.i == 3) { print(4) } } else { if (s == 2) { print(5) } else { if (s < 9) { print(6) } } }
}"""
    )
    first, second = program.decls[0].body.stmts[2:]
    assert arm_of(first, s=2) == (first.orelse, 4)
    assert arm_of(first, s=1, t=1) == (first.then, 4)
    assert first.dispatch[2] == {1: (first.then, 4)}
    third = second.orelse.stmts[0]
    assert arm_of(second, s=3) == (second.then, 4)
    assert arm_of(second, s=2) == (third.then, 8)
    assert arm_of(second, s=5) == (third.orelse, 8)
    assert third.orelse.stmts[0].dispatch is None
    assert second.dispatch[2] == {3: (second.then, 4), 2: (third.then, 8)}
    assert interp_native(program) == [2, 3, 5]
