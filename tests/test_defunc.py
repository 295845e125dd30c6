import pytest

from corolower import transform
from corolower.cli import program_forms
from corolower.defunc import defunctionalize, match_factory
from corolower.errors import DefuncError, InterpError
from corolower.interp import Interpreter, interp, interp_native, resume_sequence
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import FuncLit, RecordLit, FuncRef, walk
from corolower.transform import transform_program

from conftest import CORPUS_FILES, FIB_SOURCE, wide_source


def first_order(source, opt=True):
    return defunctionalize(transform_program(parse_source(source), opt))


def test_fib_first_order_structure():
    program = first_order(FIB_SOURCE)
    names = [d.name for d in program.decls]
    assert names == ["apply", "fib_fo", "fib", "main"]
    fib = next(d for d in program.decls if d.name == "fib")
    ret = fib.body.stmts[0].value
    assert isinstance(ret, RecordLit)
    assert [k for k, _ in ret.fields] == ["env", "fn"]
    env = ret.fields[0][1]
    assert [k for k, _ in env.fields] == ["_i", "a", "b", "c"]  # inst, then hoisted
    assert ret.fields[1][1] == FuncRef("fib_fo")
    lifted = next(d for d in program.decls if d.name == "fib_fo")
    assert len(lifted.params) == 2
    assert not lifted.is_generator


def test_fib_first_order_runs_identically():
    program = parse_source(FIB_SOURCE)
    assert interp(first_order(FIB_SOURCE)) == interp_native(program)


def test_simple_coroutine_first_order_trace():
    source = "fn* f(n) { let x = yield n yield n + x } fn main() { }"
    program = first_order(source)
    # apply(f(5), null) = 5; apply(instance, 3) = 8.
    assert resume_sequence(program, "f", [5], [None, 3]) == [5, 8]
    lifted = next(d for d in program.decls if d.name == "f_fo")
    env_fields = [
        k
        for k, _ in next(d for d in program.decls if d.name == "f")
        .body.stmts[0]
        .value.fields[0][1]
        .fields
    ]
    assert env_fields == ["_i", "n", "x"]  # inst, params, hoisted


def test_no_anonymous_functions_anywhere():
    for path in CORPUS_FILES:
        for opt in (True, False):
            program = first_order(path.read_text(), opt)
            for decl in program.decls:
                assert not any(
                    isinstance(node, FuncLit) for node in walk(decl.body)
                ), (path.name, decl.name)
            assert not any(d.is_generator for d in program.decls)


def test_first_order_reparses_and_reruns():
    for path in CORPUS_FILES:
        program = first_order(path.read_text())
        text = print_source(program)
        again = parse_source(text)
        assert again == program, path.name
        assert interp(again) == interp(program), path.name


def test_identity_without_closures():
    program = parse_source("fn helper(x) { return x * 2 } fn main() { print(helper(3)) }")
    result = defunctionalize(program)
    assert result == program  # no apply emitted, decls untouched


def test_next_sites_rewritten_to_apply():
    program = first_order(FIB_SOURCE)
    text = print_source(program)
    assert "next(" not in text
    assert "apply(g, null)" in text


def test_rejects_generators():
    program = parse_source("fn* g() { yield 1 } fn main() { }")
    with pytest.raises(DefuncError):
        defunctionalize(program)


def test_rejects_foreign_closures():
    program = parse_source("fn main() { let f = fn (x) { return x } }")
    with pytest.raises(DefuncError):
        defunctionalize(program)


@pytest.mark.parametrize(
    "machine, message",
    [
        ("return zz", "'f': machine body references 'zz'"),
        ("print(fn (y) { return 1 })", "nested closure inside a machine body"),
    ],
)
def test_rejects_machines_it_cannot_lift(machine, message):
    source = f"fn f() {{\n  let _i = 1\n  return fn (_r) {{\n    {machine}\n  }}\n}}\nfn main() {{ }}"
    with pytest.raises(DefuncError, match=message):
        defunctionalize(parse_source(source))


def test_match_factory_shape():
    lowered = transform_program(parse_source(FIB_SOURCE))
    shape = match_factory(lowered.decls[0])
    assert shape is not None
    assert shape.hoisted == ["a", "b", "c"]
    assert match_factory(lowered.decls[1]) is None  # main is not a factory


def test_apply_name_collision_bumped():
    source = """
fn* g() { yield 1 }

fn apply(a, b) { return a + b }

fn main() {
  print(apply(1, 2))
  let i = g()
  print(next(i))
}
"""
    program = parse_source(source)
    result = defunctionalize(transform_program(program))
    names = [d.name for d in result.decls]
    assert "apply" in names and "apply1" in names
    assert interp(result) == interp_native(program) == [3, 1]


def test_instances_do_not_alias():
    source = """
fn* counter() {
  let n = 0
  while (true) {
    yield n
    n = n + 1
  }
}

fn main() { }
"""
    program = first_order(source)
    interp_ = Interpreter(program)
    factory = interp_.globals.lookup("counter")
    a = interp_.call(factory, [])
    b = interp_.call(factory, [])
    from corolower.interp import resume_any

    seq = [
        resume_any(interp_, a, None),
        resume_any(interp_, b, None),
        resume_any(interp_, a, None),
        resume_any(interp_, a, None),
        resume_any(interp_, b, None),
    ]
    assert seq == [0, 0, 1, 2, 1]


@pytest.mark.parametrize(
    "body, message",
    [
        ("let z = n - n\n  yield 10 / z", "division by zero"),
        ("let flag = n > 0\n  yield n + flag", "expected an integer"),
    ],
)
def test_runtime_error_position_is_the_same_in_every_form(body, message):
    source = f"fn* g(n) {{\n  yield n\n  {body}\n}}\n" + (
        "fn main() {\n  let it = g(3)\n  print(next(it))\n  print(next(it))\n}\n"
    )
    positions = {}
    for name, form in program_forms(parse_source(source)).items():
        with pytest.raises(InterpError, match=message) as info:
            Interpreter(form).run()
        positions[name] = (info.value.line, info.value.col)
    assert positions["native"][0] == 4
    assert set(positions.values()) == {positions["native"]}, positions


SIMPLE_SWITCHED_FIRST_ORDER = """fn apply(c, r) {
  return c.fn(c.env, r)
}

fn f_fo(_e, _r) {
  switch (_e._i) case 1 {
  _e._i = 2
  return _e.n
  } case 2 {
  _e.x = _r
  _e._i = 0
  return _e.n + _e.x
  } else {
  return null
  }
}

fn f(n) {
  return { env: { _i: 1, n: n, x: null }, fn: &f_fo }
}

fn main() {
}
"""


def test_switched_first_order_shape(monkeypatch):
    # With CHAIN_MAX 0 the two-state coroutine switches on its
    # environment's field; both cases return, so the lifted body is the
    # switch alone.
    monkeypatch.setattr(transform, "CHAIN_MAX", 0)
    lowered = transform_program(
        parse_source("fn* f(n) { let x = yield n yield n + x } fn main() { }")
    )
    program = defunctionalize(lowered)
    assert print_source(program) == SIMPLE_SWITCHED_FIRST_ORDER
    assert resume_sequence(program, "f", [5], [None, 3, None]) == [5, 8, None]


@pytest.mark.parametrize("arms", [3, 80])
def test_switched_factory_matches_after_a_round_trip(arms):
    # Case bodies print at the switch's indent and still read back as the
    # factory they were, so its text defunctionalizes as the tree does:
    # 4 and 81 optimized states, a loop-free switch (the last case runs
    # the entry's statements in place of its jump back).
    source = wide_source(arms, 5)
    lowered = transform_program(parse_source(source))
    again = parse_source(print_source(lowered))
    assert again == lowered
    shape = match_factory(again.decls[0])
    assert shape is not None
    assert len(shape.machine_body.stmts[0].cases) == arms + 1
    program = defunctionalize(again)
    assert program == defunctionalize(lowered)
    assert interp(program) == interp_native(parse_source(source))


# A numbered machine reports the name fault its rewrite meets first:
# children before their parent, statements in source order.
@pytest.mark.parametrize(
    "machine, message",
    [
        ("let a = zz\n    return a", "references 'zz'"),
        ("let a = 5\n    return zz", "declares 'a', which shadows"),
        ("print(zz)\n    let a = 5\n    return a", "references 'zz'"),
        ("print(fn () { return 1 })\n    return zz", "nested closure inside a machine body"),
        ("print(fn () { return zz })", "references 'zz'"),
    ],
)
def test_the_first_name_fault_of_a_machine_wins(machine, message):
    source = f"fn f() {{\n  let _i = 1\n  let a = null\n  return fn (_r) {{\n    {machine}\n  }}\n}}\nfn main() {{ }}"
    program = parse_source(source)
    assert match_factory(program.decls[0]) is not None
    with pytest.raises(DefuncError, match=message):
        defunctionalize(program)


def test_factory_shape_is_exact():
    # A factory must start `let _i = 1` and hoist every other local as
    # null; anything else stays a closure, which defunctionalize rejects.
    source = (
        "fn f() {\n  let _i = 1\n  let a = null\n"
        "  return fn (_r) {\n    return a\n  }\n}\nfn main() { }"
    )
    assert match_factory(parse_source(source).decls[0]) is not None
    for old, new in (("let _i = 1", "let _i = 2"), ("let a = null", "let a = 0")):
        program = parse_source(source.replace(old, new))
        assert match_factory(program.decls[0]) is None
        with pytest.raises(DefuncError, match="not a state machine"):
            defunctionalize(program)


@pytest.mark.parametrize(
    "factory",
    [
        # The machine's parameter shadows a hoisted local.
        "let _i = 1\n  let a = null\n  return fn (a) {\n    return a\n  }",
        # The environment would bind `a` twice.
        "let _i = 1\n  let a = null\n  let a = null\n  return fn (_r) {\n    return a\n  }",
    ],
)
def test_rejects_factories_whose_names_clash(factory):
    program = parse_source(f"fn f() {{\n  {factory}\n}}\nfn main() {{ }}\n")
    assert match_factory(program.decls[0]) is None
    with pytest.raises(DefuncError, match="not a state machine"):
        defunctionalize(program)


@pytest.mark.parametrize(
    "factory, shadowed",
    [
        # The machine declares a local that shadows a hoisted local.
        ("let _i = 1\n  let a = null\n  return fn (_r) {\n    let a = 5\n    return a\n  }", "a"),
    ],
)
def test_rejects_machine_locals_that_shadow_the_factory(factory, shadowed):
    # The lifted body would read the environment's field where the machine
    # reads its own local: `next(f())` gives 5 natively and null lifted.
    program = parse_source(f"fn f() {{\n  {factory}\n}}\nfn main() {{ }}\n")
    assert match_factory(program.decls[0]) is not None
    with pytest.raises(DefuncError, match=f"declares '{shadowed}', which shadows"):
        defunctionalize(program)
