import pytest

from corolower.errors import BudgetExceeded, InterpError, ValidationError
from corolower.interp import (
    interp,
    interp_native,
    render_output,
    render_value,
    resume_sequence,
)
from corolower.parser import parse_source
from corolower.transform import transform_program

from conftest import FIB_SOURCE, RECEIVE_SOURCE

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


def test_wrapping_addition():
    # (2^63 - 1) + 1 wraps to -2^63; -(2^63 - 1) - 2 wraps back to 2^63 - 1.
    program = parse_source(
        f"fn main() {{ print({2**63 - 1} + 1) print(0 - {2**63 - 1} - 2) }}"
    )
    assert interp_native(program) == [-(2**63), 2**63 - 1]


def test_wrapping_multiplication_and_negation():
    program = parse_source(f"fn main() {{ print({2**62} * 2) print(-(0 - {2**63 - 1} - 1)) }}")
    assert interp_native(program) == [-(2**63), -(2**63)]


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


def test_render_output_one_value_per_line():
    program = parse_source("fn main() { print(0) print(true) print(null) }")
    assert render_output(interp_native(program)) == "0\ntrue\nnull\n"


def test_render_value_forms():
    assert render_value(-(2**63)) == str(-(2**63))
    assert render_value(False) == "false"
    assert render_value(None) == "null"


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

    assert set(_EXPR) == node_kinds(syntax.Expr)
    assert set(_STMT) == node_kinds(syntax.Stmt)
