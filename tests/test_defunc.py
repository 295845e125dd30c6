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


SIMPLE_THREADED_FIRST_ORDER = """fn apply(c, r) {
  return c.fn(c.env, r)
}

fn f_fo(_e, _r) {
  while (true) {
    let _v = _e._i(_e, _r)
    if (_v != _e._k) {
      return _v
    }
  }
}

fn f_s0(_e, _r) {
  return null
}

fn f_s1(_e, _r) {
  _e._i = &f_s2
  return _e.n
}

fn f_s2(_e, _r) {
  _e.x = _r
  _e._i = &f_s0
  return _e.n + _e.x
}

fn f(n) {
  return { env: { _i: &f_s1, _k: {}, n: n, x: null }, fn: &f_fo }
}

fn main() {
}
"""


def test_threaded_first_order_shape(monkeypatch):
    monkeypatch.setattr(transform, "SWITCH_MAX", 0)
    lowered = transform_program(
        parse_source("fn* f(n) { let x = yield n yield n + x } fn main() { }")
    )
    program = defunctionalize(lowered)
    assert print_source(program) == SIMPLE_THREADED_FIRST_ORDER
    assert resume_sequence(program, "f", [5], [None, 3, None]) == [5, 8, None]


def test_threaded_factory_matches_after_a_round_trip():
    lowered = transform_program(parse_source(wide_source(80, 5)))
    again = parse_source(print_source(lowered))
    shape = match_factory(again.decls[0])
    assert shape is not None and shape.sentinel == "_k" and shape.entry == "_s1"
    assert len(shape.states) == 82  # the sink and 81 states
    program = defunctionalize(again)
    assert program == defunctionalize(lowered)
    assert interp(program) == interp_native(parse_source(wide_source(80, 5)))


THREADED_FACTORY = """fn f() {{
  let _k = {{}}
  let _s0 = fn (_r) {{
    return null
  }}
  let _s1 = fn (_r) {{
    {state}
  }}
  let _i = _s1
  return fn (_r) {{
    while (true) {{
      let _v = _i(_r)
      if (_v != _k) {{
        return _v
      }}
    }}
  }}
}}
fn main() {{ }}
"""


@pytest.mark.parametrize(
    "state, message",
    [
        ("_i = _s0\n    return _s1", "'f': a state closure is used as a value"),
        ("_i = _s0\n    return _i", "'f': a state closure is used as a value"),
        ("_i = 1\n    return 1", "'f': the next state is not a state closure"),
        ("_i = _s0\n    return zz", "'f': machine body references 'zz'"),
    ],
)
def test_rejects_threaded_machines_it_cannot_lift(state, message):
    program = parse_source(THREADED_FACTORY.format(state=state))
    with pytest.raises(DefuncError, match=message):
        defunctionalize(program)


# Within one state a fault of its transfers wins over a name fault, in
# either order in the source, and a state used as a value wins too.
@pytest.mark.parametrize(
    "state, message",
    [
        ("_i = 1\n    return zz", "'f': the next state is not a state closure"),
        ("print(zz)\n    _i = 1\n    return 1", "'f': the next state is not a state closure"),
        ("print(zz)\n    _i = _s0\n    return _s1", "'f': a state closure is used as a value"),
        ("_i = _s0\n    print(_s1)\n    return zz", "'f': a state closure is used as a value"),
    ],
)
def test_transfer_faults_win_over_name_faults(state, message):
    program = parse_source(THREADED_FACTORY.format(state=state))
    with pytest.raises(DefuncError, match=message):
        defunctionalize(program)


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


def test_threaded_factory_shape_is_exact():
    # The machine must be exactly the threaded loop; anything else stays a
    # closure, which defunctionalize rejects.
    source = THREADED_FACTORY.format(state="_i = _s0\n    return 1")
    assert match_factory(parse_source(source).decls[0]) is not None
    for old, new in (("_v != _k", "_v == _k"), ("let _i = _s1", "let _i = 1")):
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
        # A threaded state declares a local that shadows the sentinel.
        (
            "let _k = {}\n  let _s1 = fn (_r) {\n    let _k = 5\n    _i = _s1\n    return _k\n  }\n"
            "  let _i = _s1\n  return fn (_r) {\n    while (true) {\n      let _v = _i(_r)\n"
            "      if (_v != _k) {\n        return _v\n      }\n    }\n  }",
            "_k",
        ),
    ],
)
def test_rejects_machine_locals_that_shadow_the_factory(factory, shadowed):
    # The lifted body would read the environment's field where the machine
    # reads its own local: `next(f())` gives 5 natively and null lifted.
    program = parse_source(f"fn f() {{\n  {factory}\n}}\nfn main() {{ }}\n")
    assert match_factory(program.decls[0]) is not None
    with pytest.raises(DefuncError, match=f"declares '{shadowed}', which shadows"):
        defunctionalize(program)
