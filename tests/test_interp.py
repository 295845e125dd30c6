import importlib
import sys
from collections import Counter

import pytest

from corolower import transform
from corolower.cli import program_forms
from corolower.errors import BudgetExceeded, InterpError, ValidationError
from corolower.interp import (
    Interpreter,
    Record,
    interp,
    interp_native,
    render_output,
    render_value,
    resume_sequence,
    trace_instance,
)
from corolower.parser import parse_source
from corolower.syntax import (
    Binary,
    Block,
    BoolLit,
    FieldGet,
    If,
    IntLit,
    NullLit,
    Program,
    Return,
    Switch,
    Var,
    While,
    walk,
)
from corolower.transform import transform_program

from conftest import (
    CORPUS_DIR,
    CORPUS_FILES,
    FIB_SOURCE,
    RECEIVE_SOURCE,
    outcome,
    wide_source,
    without_tables,
)

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
    # `let` inside a branch is a cell of the activation, like the hoisted
    # machine form.
    program = parse_source(
        "fn main() { if (false) { let x = 1 } print(x) }"
    )
    assert interp_native(program) == [None]


ENVIRONMENT_CASES = {
    # A closure's assignment to a captured local is seen by its maker and
    # by a sibling, and a closure made by a closure shares the same cell.
    "captured": (
        """fn main() {
  let n = 1
  let inc = fn () { n = n + 1 return n }
  let get = fn () { return n }
  print(inc())
  print(n)
  print(get())
  n = 10
  print(get())
  let twice = fn () { let again = fn () { n = n + 1 } again() again() return n }
  print(twice())
  print(n)
}""",
        ([2, 2, 2, 10, 12, 12], None, 54),
    ),
    # A closure's own local or parameter shadows its maker's.
    "shadowed": (
        """fn main() {
  let x = 1
  let f = fn () { let x = 2 x = x + 10 return x }
  let g = fn (x) { x = x + 100 return x }
  print(f())
  print(g(5))
  print(x)
}""",
        ([12, 105, 1], None, 29),
    ),
    # Each recursive call gets fresh cells, and each closure keeps its own
    # call's.
    "recursion": (
        """fn make(k) {
  let c = k
  let r = fn () { return c }
  if (k > 0) {
    let inner = make(k - 1)
    c = c * 10
    print(inner())
  }
  return r
}
fn main() { let f = make(2) print(f()) }""",
        ([0, 10, 20], None, 69),
    ),
    # Assigning a declaration's name replaces it for every function.
    "declaration": (
        """fn one() { return 1 }
fn two() { return 2 }
fn swap() { one = two }
fn main() {
  print(one())
  swap()
  print(one())
  let f = fn () { return one() }
  print(f())
  one = 7
  print(one)
}""",
        ([1, 2, 2, 7], None, 29),
    ),
    # A name neither the closure's, its maker's nor a declaration's fails
    # at the name.
    "unbound": (
        """fn main() {
  let f = fn () { return y + 1 }
  print(1)
  print(f())
}""",
        ([1], (InterpError, "unbound name 'y'", 2, 26), 10),
    ),
}


@pytest.mark.parametrize("case", ENVIRONMENT_CASES)
def test_the_environment_model(case):
    # Printed values, error and steps, as the scope chain gave them.
    source, expected = ENVIRONMENT_CASES[case]
    assert outcome(parse_source(source), 10_000) == expected


def test_an_activation_holds_only_its_parameters_and_locals():
    # A generator instance's activation is one dict of cells, holding its
    # parameters and declared locals and no declaration's name however
    # many there are; each call makes fresh cells.
    decls = "".join(f"fn d{k}() {{ }}\n" for k in range(50))
    program = parse_source(
        decls + "fn* g(a, b) { let x = a + b let y = yield x if (y) { let z = 1 } }\nfn main() { }"
    )
    it = Interpreter(program)
    first, second = (it.call(it.globals.lookup("g"), [1, k]) for k in (2, 3))
    env = first.runner.gi_frame.f_locals["env"]
    assert env == {"a": [1], "b": [2], "x": [None], "y": [None], "z": [None]}
    assert it.resume(first, None) == 3 and env["x"] == [3]
    other = second.runner.gi_frame.f_locals["env"]
    assert other["b"] == [3] and all(other[name] is not env[name] for name in env)


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


def entered_frames(run):
    """How many times run() enters each function of the interpreter
    module, by name, counted with sys.setprofile."""
    code_file = interp_module.__file__
    entered = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == code_file:
            entered[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


def test_the_hot_path_enters_no_helper_frame():
    # The interpreter frames of a whole run, per form (native, lowered-opt,
    # lowered-noopt, first-order). A node costs at most its handler's
    # frame: no form enters an arithmetic wrapper, a boolean test, a
    # comprehension, `_field_get` or an `__init__`, and `call` resolves a
    # `&f` or a declaration's name itself, so no form enters `_global`. A
    # `Var`, `IntLit`, `null` or `v.f` leaf read in place costs none, and
    # neither do an integer or null field of a record literal and the
    # `true`, `if` and `switch` of a machine's dispatch loop, so
    # first-order enters no `_literal` either. Entering `_var` and
    # `_literal` for every leaf and `_literal`, `_if` or `_switch` on
    # every pass of the loop, these runs took fib 262 / 361 / 431 / 450
    # frames and tally 100 / 160 / 215 / 203; entering `_field_get`,
    # `_literal`, `__init__` and a resolving frame for those, fib 150 /
    # 178 / 208 / 316 and tally 71 / 91 / 110 / 153; entering `_null` for
    # every `null` leaf, fib 148 / 166 / 196 / 194 and tally 69 / 84 /
    # 103 / 93.
    helpers = {"wrap64", "_bool", "<lambda>", "<listcomp>", "<dictcomp>"}
    helpers |= {"_field_get", "__init__", "_global"}
    for name, frames in (("fib", (148, 163, 193, 181)), ("tally", (65, 78, 97, 85))):
        forms = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))
        entered = {form: entered_frames(Interpreter(p).run) for form, p in forms.items()}
        assert {form: helpers & set(calls) for form, calls in entered.items()} == dict.fromkeys(
            forms, set()
        ), name
        assert "_literal" not in entered["first-order"], name
        assert tuple(sum(calls.values()) for calls in entered.values()) == frames, name


def test_a_wide_machine_reads_its_state_in_place_on_next():
    # wide_source's arms test `(i + j) % 2 == 0`, and `%` never wraps.
    # Its optimized machine has no dispatch loop, so each `next` runs
    # `_switch`, which reads `_i` (lowered-opt) or `_e._i` (first-order)
    # in place, as the arms read `_e.i` and `apply` reads `c.fn` and
    # `c.env`. Read in their handlers, these 60 `next`s entered 60 `_var`
    # frames lowered-opt and 302 `_field_get` frames first-order, and
    # every form 60 `wrap64`.
    program = parse_source(wide_source(20, 60))
    for form, lowered in program_forms(program).items():
        it = Interpreter(lowered)
        instance = it.call(it.globals.lookup("wide"), [0])
        entered = entered_frames(lambda: trace_instance(it, instance, [None] * 60))
        assert "wrap64" not in entered, form
        if form in ("lowered-opt", "first-order"):
            assert {"_var", "_field_get"} & set(entered) == set(), form
            assert entered["_switch"] == 60, form


def test_render_output_one_value_per_line():
    program = parse_source("fn main() { print(0) print(true) print(null) }")
    assert render_output(interp_native(program)) == "0\ntrue\nnull\n"


def test_render_value_forms():
    assert render_value(-(2**63)) == str(-(2**63))
    assert render_value(False) == "false"
    assert render_value(None) == "null"


def test_render_value_of_records():
    # Records render from a stack, so depth costs no Python frames; a
    # record that contains itself has no rendering and raises a runtime
    # error that says so.
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
    with pytest.raises(InterpError, match="^cannot render a record that contains itself$"):
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


# -- dispatch loops -------------------------------------------------------------
#
# A dispatch loop, a `while (true)` whose one statement is a chain or a
# switch, takes the arm or case from the table built with the loop
# (syntax.While) in one lookup. Every outcome must be the one of a copy
# without tables (conftest.without_tables), whose loops run `_if` or
# `_switch` on every pass: the printed prefix, the error's kind, message
# and position, and the steps charged.


def head_frames(root, run):
    """What run() returns, and how many times it entered `_if` or
    `_switch` on the head of a dispatch loop under root, counted with
    sys.setprofile. A pass of the loop enters its head's handler unless it
    took the arm or case from the table."""
    heads = {
        id(loop.body.stmts[0])
        for loop in walk(root)
        if type(loop) is While and loop.cond == BoolLit(True) and len(loop.body.stmts) == 1
    }
    handlers = {interp_module._if.__code__, interp_module._switch.__code__}
    entered = 0

    def count(frame, event, arg):
        nonlocal entered
        if event == "call" and frame.f_code in handlers and id(frame.f_locals["stmt"]) in heads:
            entered += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, entered


def outcomes_with_and_without_tables(program, budgets):
    """The outcome at each budget with the dispatch tables and without
    them, and of the passes of the dispatch loops in the run at the last
    budget, how many took the table and how many ran the head's handler."""
    plain = without_tables(program)
    with_tables = [outcome(program, budget) for budget in budgets]
    without = [outcome(plain, budget) for budget in budgets]
    passes = head_frames(plain, lambda: outcome(plain, budgets[-1]))[1]
    fell_back = head_frames(program, lambda: outcome(program, budgets[-1]))[1]
    return with_tables, without, passes - fell_back, fell_back


def full_steps(program):
    it = Interpreter(program)
    it.run()
    return it.steps


@pytest.mark.parametrize("form", ["lowered-opt", "lowered-noopt", "first-order"])
@pytest.mark.parametrize("name", ["fib", "receive", "tally", "exhaust"])
def test_dispatch_arms_keep_every_budget_exact(name, form):
    program = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))[form]
    steps = full_steps(program)
    budgets = range(1, steps + 1)
    with_tables, without, taken, fell_back = outcomes_with_and_without_tables(program, budgets)
    assert with_tables == without
    assert with_tables[-1][1:] == (None, steps)
    assert all(error[0] is BudgetExceeded for _, error, _ in with_tables[:-1])
    # At the full budget every pass of a dispatch loop takes the table,
    # the passes that find the sink 0 included: exhaust's six `next`s
    # resume the three states and then the sink three times. Tally's
    # unoptimized machine of 6 states dispatches through a switch.
    assert taken > 0 and fell_back == 0
    if name == "exhaust":
        assert taken == 6


def test_dispatch_of_a_switched_machine():
    # 21 states optimized and 62 unoptimized: one switch whose labels are
    # the states, on `_i` lowered and `_e._i` first-order. Optimized,
    # every case returns and the switch is the body itself, which
    # `_switch` runs on every `next`, and no loop carries a table;
    # unoptimized, it is the one statement of a dispatch loop, whose 125
    # passes take the loop's table. Budgets every 11 steps land all over
    # the run.
    source = parse_source(wide_source(20, 60))
    for name, program in program_forms(source).items():
        if name == "native":
            continue
        steps = full_steps(program)
        budgets = [*range(1, steps, 11), steps]
        with_tables, without, taken, fell_back = outcomes_with_and_without_tables(program, budgets)
        assert (taken, fell_back) == ((125 if name == "lowered-noopt" else 0), 0), name
        assert with_tables == without, name
        assert with_tables[-1][1:] == (None, steps), name
        (switch,) = [n for n in walk(program) if type(n) is Switch]
        states = transform.plan_generator(source.decls[0], name != "lowered-noopt")[1].states
        assert list(switch.table) == states, name
        assert switch.orelse == Block([Return(NullLit())]), name
        loops = [n for n in walk(program) if type(n) is While and n.dispatch is not None]
        if name != "lowered-noopt":
            assert loops == [], name
            continue
        # The switch and `_i`, 2 steps to any case.
        (loop,) = loops
        assert loop.body.stmts[0] is switch
        table = {label: (block, 2) for label, block in switch.cases}
        assert loop.dispatch == ("_i", None, table, (switch.orelse, 2))


def test_a_switch_on_a_selector_carries_its_table():
    # Tally's unoptimized machine of 6 states switches on `_i` in its
    # dispatch loop: the switch and the variable, 2 steps to any case.
    # if_in_loop's first-order machine switches on `_e._i`, which reads a
    # field too: 3 steps. A loop around a switch on any other expression
    # than a variable or a field of one carries no table.
    for name, form, selector, cost, labels in (
        ("tally", "lowered-noopt", ("_i", None), 2, [1, 2, 3, 4, 5, 6]),
        ("if_in_loop", "first-order", ("_e", "_i"), 3, [1, 2, 3, 6]),
    ):
        program = program_forms(parse_source((CORPUS_DIR / f"{name}.mini").read_text()))[form]
        (switch,) = [n for n in walk(program) if type(n) is Switch]
        (loop,) = [n for n in walk(program) if type(n) is While and n.dispatch is not None]
        assert loop.body.stmts[0] is switch, name
        table = {label: (block, cost) for label, block in switch.cases}
        assert list(table) == labels, name
        assert loop.dispatch == (*selector, table, (switch.orelse, cost)), name
    program = parse_source("fn main() { let s = 1 while (true) { switch (s + 3) case 4 { return 4 } } }")
    assert program.decls[0].body.stmts[1].dispatch is None


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
def test_dispatch_arms_fall_back_on_any_other_selector(init, selector, op):
    # Null, a boolean, a record, an unbound name, a missing field and a
    # field of a non-record: the tests run one by one, so errors and steps
    # stay those of each test. Any integer, a literal of the chain or
    # another value, takes its arm from the table at any budget: the
    # budget is checked at the prints after it. A `<` test heads no chain,
    # so its tests always run one by one.
    source = f"""fn main() {{
  let s = {init}
  print(7)
  while (true) {{
    if ({selector} {op} 1) {{
      print(1)
      return 1
    }} else {{
      if ({selector} {op} 4) {{
        print(4)
        return 4
      }} else {{
        print(5)
        return 5
      }}
    }}
  }}
}}"""
    program = parse_source(source)
    budgets = range(1, 30)
    with_tables, without, taken, fell_back = outcomes_with_and_without_tables(program, budgets)
    assert with_tables == without
    ints = {"s": ("0", "1", "3"), "s.i": ("{ i: 0 }", "{ i: 3 }", "{ i: 4 }")}
    takes = op == "==" and init in ints.get(selector, ())
    assert (taken, fell_back) == ((1, 0) if takes else (0, 1))


def test_fib_dispatch_arms():
    # Each `_i == k` test is 4 steps (if, ==, _i, k) lowered and 5
    # first-order (`_e._i` reads a field too). The table is built with the
    # loop; the sink 0 passes all three tests to the `return null`.
    forms = program_forms(parse_source(FIB_SOURCE))
    for form, cost in (("lowered-opt", 4), ("first-order", 5)):
        loop = next(n for n in walk(forms[form]) if type(n) is While and n.cond == BoolLit(True))
        chain = [loop.body.stmts[0]]
        while len(chain) < 3:
            chain.append(chain[-1].orelse.stmts[0])
        name, field, table, other = loop.dispatch
        assert (name, field) == (("_i", None) if cost == 4 else ("_e", "_i")), form
        assert table == {k: (test.then, cost * k) for k, test in zip((1, 2, 3), chain)}, form
        assert other == (chain[-1].orelse, cost * 3), form
        assert chain[-1].orelse.stmts == [Return(NullLit())]

        def run_from(loop, k):
            """The result and the steps of fib's dispatch loop run from
            state k, with a = 0, b = 1 and c = 0."""
            state = {"_i": k, "a": 0, "b": 1, "c": 0}
            it = Interpreter(Program([]))
            bindings = state if field is None else {"_e": Record(state)}
            env = {name: [value] for name, value in bindings.items()}
            return interp_module._while(it, loop, env), it.steps

        # State 1 starts fib and state 3 steps it, each going on to 2,
        # which returns a; the sink 0 and any other value return null.
        plain = without_tables(loop)
        for k, result in ((0, None), (1, 0), (2, 0), (3, 1), (4, None)):
            ran, fell_back = head_frames(loop, lambda: run_from(loop, k))
            assert ran == run_from(plain, k) and ran[0] == (result,), (form, k)
            assert fell_back == 0, (form, k)
        # The loop and `true`, the tests, and `return` and `null`.
        assert run_from(loop, 0)[1] == 4 + cost * 3, form


@pytest.mark.parametrize("init, printed", [("1", [1]), ("2", [2]), ("5", [])])
def test_a_dispatch_chain_takes_the_first_test_of_a_literal(init, printed):
    # Any other integer passes all three tests and runs nothing: 12 steps
    # a pass, till the budget ends the loop in its third pass.
    program = parse_source(
        f"""fn main() {{
  let s = {init}
  while (true) {{
    if (s == 1) {{ print(1) return 1 }} else {{ if (s == 2) {{ print(2) return 2 }} else {{ if (s == 1) {{ print(3) return 3 }} }} }}
  }}
}}"""
    )
    loop = program.decls[0].body.stmts[1]
    first = loop.body.stmts[0]
    second = first.orelse.stmts[0]
    assert loop.dispatch == ("s", None, {1: (first.then, 4), 2: (second.then, 8)}, (None, 12))
    budgets = range(1, 40)
    with_tables, without, taken, fell_back = outcomes_with_and_without_tables(program, budgets)
    assert with_tables == without
    assert with_tables[-1][:2] == (printed, None if printed else (BudgetExceeded, "step budget exceeded", None, None))
    assert (taken, fell_back) == (1 if printed else 3, 0)


@pytest.mark.parametrize("init, printed", [("1", [1]), ("2", [2]), ("0", []), ("true", [])])
def test_a_dispatch_chain_whose_last_if_has_no_else(init, printed):
    # Any other integer passes both tests and runs nothing: 8 steps a
    # pass, till the budget ends the loop in its fourth pass. A boolean
    # runs the tests one by one, through `_if` on every pass.
    program = parse_source(
        f"""fn main() {{
  let s = {init}
  while (true) {{
    if (s == 1) {{ print(1) return 1 }} else {{ if (s == 2) {{ print(2) return 2 }} }}
  }}
}}"""
    )
    loop = program.decls[0].body.stmts[1]
    first = loop.body.stmts[0]
    second = first.orelse.stmts[0]
    assert loop.dispatch == ("s", None, {1: (first.then, 4), 2: (second.then, 8)}, (None, 8))
    budgets = range(1, 40)
    with_tables, without, taken, fell_back = outcomes_with_and_without_tables(program, budgets)
    assert with_tables == without
    assert with_tables[-1][:2] == (printed, None if printed else (BudgetExceeded, "step budget exceeded", None, None))
    assert (taken, fell_back) == {"1": (1, 0), "2": (1, 0), "0": (4, 0), "true": (0, 4)}[init]


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_running_leaves_every_dispatch_table_as_built(path):
    for form, program in program_forms(parse_source(path.read_text())).items():
        loops = [n for n in walk(program) if type(n) is While and n.dispatch is not None]
        built = [(n.dispatch, dict(n.dispatch[2])) for n in loops]
        Interpreter(program).run()
        for loop, (dispatch, table) in zip(loops, built):
            assert loop.dispatch is dispatch and dispatch[2] == table, form


def is_selector(expr):
    return type(expr) is Var or type(expr) is FieldGet and type(expr.record) is Var


def selects(loop):
    """Whether loop is a `while (true)` whose one statement is a switch
    on a selector or an `if (s == k)` on one."""
    stmts = loop.body.stmts
    head = stmts[0] if loop.cond == BoolLit(True) and len(stmts) == 1 else None
    if type(head) is Switch:
        return is_selector(head.subject)
    test = head.cond if type(head) is If else None
    return type(test) is Binary and test.op == "==" and is_selector(test.lhs) and type(test.rhs) is IntLit


def test_only_a_dispatch_loop_carries_a_table():
    # A jump table belongs to the loop that selects through it: no `if` or
    # `switch` of any form carries one, and of the corpus's loops exactly
    # the 60 dispatch loops do.
    tables = 0
    for path in CORPUS_FILES:
        for form, program in program_forms(parse_source(path.read_text())).items():
            for node in walk(program):
                if type(node) is If or type(node) is Switch:
                    assert not hasattr(node, "dispatch"), (path.stem, form)
                elif type(node) is While:
                    assert (node.dispatch is not None) == selects(node), (path.stem, form)
                    tables += node.dispatch is not None
    assert tables == 60
    # A switch on another expression, two statements, a loop that tests.
    for loop in (
        "while (true) { switch (s + 3) case 4 { return 4 } }",
        "while (true) { if (s == 1) { return 1 } s = 1 }",
        "while (s < 3) { if (s == 1) { return 1 } else { if (s == 2) { return 2 } } }",
    ):
        program = parse_source(f"fn main() {{ let s = 1 {loop} }}")
        assert program.decls[0].body.stmts[1].dispatch is None, loop
    # An else that tests another selector ends the chain: `t == 2` runs
    # through `_if` after the table's one entry.
    program = parse_source(
        "fn main() { let s = 2 let t = 2 while (true) { if (s == 1) { return 1 } else { if (t == 2) { print(2) return 2 } } } }"
    )
    loop = program.decls[0].body.stmts[2]
    first = loop.body.stmts[0]
    assert loop.dispatch == ("s", None, {1: (first.then, 4)}, (first.orelse, 4))
    assert outcome(program, 100) == outcome(without_tables(program), 100) == ([2], None, 18)


def test_a_dispatch_tree_stops_at_any_other_statement():
    # Only an arm that is one `==` test on the same selector continues the
    # chain, and the table holds every test of the chain from the start.
    # `two(3)` takes its arm from the table and fails in it, at `s.i`.
    source = """fn one(s, t) {
  while (true) {
    if (s == 1) { if (t == 1) { print(1) } return 1 } else { if (s == 2) { print(2) } print(3) return 3 }
  }
}

fn two(s) {
  while (true) {
    if (s == 3) { if (s.i == 3) { print(4) } return 4 } else { if (s == 2) { print(5) return 5 } else { if (s < 9) { print(6) return 6 } else { return 7 } } }
  }
}

fn main() {
  print(one(2, 2))
  print(one(1, 1))
  print(two(2))
  print(two(5))
  print(two(9))
  print(two(3))
}"""
    program = parse_source(source)
    one, two = (decl.body.stmts[0] for decl in program.decls[:2])
    first, second = one.body.stmts[0], two.body.stmts[0]
    third = second.orelse.stmts[0]
    assert one.dispatch[2:] == ({1: (first.then, 4)}, (first.orelse, 4))
    assert two.dispatch[2:] == ({3: (second.then, 4), 2: (third.then, 8)}, (third.orelse, 8))
    steps = outcome(program, 10_000_000)[2]
    with_tables, without, taken, fell_back = outcomes_with_and_without_tables(
        program, range(1, steps + 1)
    )
    assert with_tables == without
    error = (InterpError, "field access on a non-record value", 9, 24)
    assert with_tables[-1] == ([2, 3, 3, 1, 1, 5, 5, 6, 6, 7], error, steps)
    assert (taken, fell_back) == (6, 0)
