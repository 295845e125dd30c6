from collections import Counter

import pytest

from corolower.errors import ParseError, ValidationError
from corolower.parser import MAX_NESTING, parse_source
from corolower.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    FieldGet,
    FieldSet,
    FuncLit,
    FuncRef,
    IntLit,
    Let,
    LetYield,
    NextCall,
    NullLit,
    Print,
    RecordLit,
    Return,
    Switch,
    Unary,
    Var,
    While,
    YieldStmt,
    Expr,
    walk,
)

from conftest import FIB_SOURCE


def test_minimal_program():
    program = parse_source("fn main() { }")
    assert len(program.decls) == 1
    assert program.decls[0].name == "main"
    assert not program.decls[0].is_generator
    assert program.decls[0].body.stmts == []


def test_fib_shape():
    program = parse_source(FIB_SOURCE)
    fib = program.decls[0]
    assert fib.name == "fib" and fib.is_generator
    lets = fib.body.stmts[:2]
    assert [s.name for s in lets] == ["a", "b"]
    assert all(isinstance(s, Let) for s in lets)
    loop = fib.body.stmts[2]
    assert isinstance(loop, While) and loop.cond == BoolLit(True)
    body = loop.body.stmts
    assert isinstance(body[0], YieldStmt) and body[0].value == Var("a")
    assert body[1] == Let("c", Var("a"))
    assert body[2] == Assign("a", Var("b"))
    assert body[3] == Assign("b", Binary("+", Var("c"), Var("a")))


def test_yield_outside_generator_rejected():
    with pytest.raises(ValidationError):
        parse_source("fn f() { yield 1 } fn main() { }")


def test_yield_inside_funclit_rejected():
    with pytest.raises(ValidationError):
        parse_source("fn* g() { let f = fn () { yield 1 } } fn main() { }")


# A fn literal deep in an expression of a generator body is still checked:
# its body may not yield, and its parameters must be distinct.
NESTED_LITERALS = {
    "call-argument": "  print(h(fn ({params}) {{\n    {stmt}\n  }}))",
    "record-field": "  let r = {{ f: fn ({params}) {{\n    {stmt}\n  }} }}",
}


@pytest.mark.parametrize("where", NESTED_LITERALS)
def test_yield_in_a_nested_fn_literal_rejected_at_its_position(where):
    literal = NESTED_LITERALS[where].format(params="a", stmt="yield a")
    source = f"fn* g() {{\n  yield 0\n{literal}\n  yield 2\n}}\nfn main() {{ }}\n"
    with pytest.raises(ValidationError, match="yield outside a generator") as err:
        parse_source(source)
    assert (err.value.line, err.value.col) == (4, 5)
    parse_source(source.replace("yield a", "return a"))


@pytest.mark.parametrize("where", NESTED_LITERALS)
def test_duplicate_params_in_a_nested_fn_literal_rejected_at_its_position(where):
    literal = NESTED_LITERALS[where].format(params="a, a", stmt="return a")
    source = f"fn* g() {{\n  yield 0\n{literal}\n}}\nfn main() {{ }}\n"
    with pytest.raises(ValidationError, match="duplicate parameter name") as err:
        parse_source(source)
    col = literal.index("fn (") + 1
    assert (err.value.line, err.value.col) == (3, col)


def test_duplicate_function_name():
    with pytest.raises(ValidationError):
        parse_source("fn main() { } fn main() { }")


def test_missing_entry():
    with pytest.raises(ValidationError):
        parse_source("fn helper() { }")


def test_generator_entry_rejected():
    with pytest.raises(ValidationError):
        parse_source("fn* main() { }")


def test_entry_with_params_rejected():
    with pytest.raises(ValidationError):
        parse_source("fn main(x) { }")


def test_duplicate_params_rejected():
    with pytest.raises(ValidationError):
        parse_source("fn f(a, a) { } fn main() { }")


def test_let_yield():
    program = parse_source("fn* g() { let x = yield 1 } fn main() { }")
    stmt = program.decls[0].body.stmts[0]
    assert stmt == LetYield("x", IntLit(1))


def test_precedence():
    program = parse_source("fn main() { let x = 1 + 2 * 3 == 7 && true }")
    value = program.decls[0].body.stmts[0].value
    assert value == Binary(
        "&&",
        Binary("==", Binary("+", IntLit(1), Binary("*", IntLit(2), IntLit(3))), IntLit(7)),
        BoolLit(True),
    )


def test_unary_and_parens():
    program = parse_source("fn main() { let x = -(1 + 2) let y = !true }")
    stmts = program.decls[0].body.stmts
    assert stmts[0].value == Unary("-", Binary("+", IntLit(1), IntLit(2)))
    assert stmts[1].value == Unary("!", BoolLit(True))


def test_postfix_chains():
    program = parse_source("fn main() { let v = f(1)(2).field }")
    value = program.decls[0].body.stmts[0].value
    assert value == FieldGet(Call(Call(Var("f"), [IntLit(1)]), [IntLit(2)]), "field")


def test_next_forms():
    program = parse_source("fn main() { let a = next(g) let b = next(g, 1) }")
    stmts = program.decls[0].body.stmts
    assert stmts[0].value == NextCall(Var("g"), None)
    assert stmts[1].value == NextCall(Var("g"), IntLit(1))


def test_record_and_funcref_and_fieldset():
    program = parse_source(
        "fn main() { let r = { env: { inst: 1 }, fn: &main } r.env = null }"
    )
    stmts = program.decls[0].body.stmts
    record = stmts[0].value
    assert isinstance(record, RecordLit)
    assert record.fields[0][0] == "env"
    assert record.fields[1] == ("fn", FuncRef("main"))
    assert stmts[1] == FieldSet(Var("r"), "env", NullLit())


def test_duplicate_record_field_rejected():
    with pytest.raises(ParseError):
        parse_source("fn main() { let r = { a: 1, a: 2 } }")


def test_switch():
    program = parse_source(
        "fn main() { switch (x + 1) case 2 { print(2) } case 0 { } else { return } "
        "switch (x) case 7 { } }"
    )
    first, second = program.decls[0].body.stmts
    assert first == Switch(
        Binary("+", Var("x"), IntLit(1)),
        [(2, Block([Print(IntLit(2))])), (0, Block([]))],
        Block([Return()]),
    )
    assert first.table == {2: Block([Print(IntLit(2))]), 0: Block([])}
    assert second == Switch(Var("x"), [(7, Block([]))])


@pytest.mark.parametrize(
    "source, message, col",
    [
        ("switch (x) case 1 { } case 1 { }", "duplicate case label 1", 40),
        ("switch (x) { }", "expected 'case', found '{'", 24),
        ("switch (x) else { }", "expected 'case', found 'else'", 24),
        ("switch (x) case -1 { }", "expected 'int', found '-'", 29),
        ("switch (x) case y { }", "expected 'int', found 'y'", 29),
        ("let case = 1", "expected 'ident', found 'case'", 17),
        ("let switch = 1", "expected 'ident', found 'switch'", 17),
    ],
)
def test_bad_switch_rejected_at_its_position(source, message, col):
    with pytest.raises(ParseError) as err:
        parse_source(f"fn main() {{ {source} }}")
    assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)


def test_switch_in_a_generator_rejected_at_its_position():
    with pytest.raises(ValidationError) as err:
        parse_source("fn* g() {\n  yield 1\n  switch (1) case 1 { yield 2 }\n} fn main() { }")
    assert (err.value.message, err.value.line, err.value.col) == (
        "switch inside a generator", 3, 3,
    )
    # A fn literal's body is not the generator's.
    parse_source("fn* g() { let f = fn (x) { switch (x) case 1 { } } yield f } fn main() { }")


def test_funclit():
    program = parse_source("fn main() { return fn (x) { return x } }")
    value = program.decls[0].body.stmts[0].value
    assert isinstance(value, FuncLit)
    assert value.params == ["x"]


def test_walk_visits_nested_closure_bodies_once():
    program = parse_source(
        "fn main() { let c = 1 "
        "let f = fn (a) { return fn (b) { return fn (d) { return c } } } }"
    )
    exprs = [n for n in walk(program.decls[0].body) if isinstance(n, Expr)]
    kinds = Counter(type(e).__name__ for e in exprs)
    assert kinds == {"IntLit": 1, "FuncLit": 3, "Var": 1}
    assert len({id(e) for e in exprs}) == len(exprs)


def test_assign_to_call_rejected():
    with pytest.raises(ParseError):
        parse_source("fn main() { f(1) = 2 }")


def test_parse_error_position_in_bounds():
    source = "fn main() {\n  let = 3\n}"
    with pytest.raises(ParseError) as err:
        parse_source(source)
    lines = source.split("\n")
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.col <= len(lines[err.value.line - 1]) + 1


def test_expected_found_message():
    with pytest.raises(ParseError) as err:
        parse_source("fn main( { }")
    assert "expected" in err.value.message and "found" in err.value.message


def test_positions_do_not_affect_equality():
    a = parse_source("fn main() { let x = 1 }")
    b = parse_source("fn main() {\n\n  let x =    1 }")
    assert a == b


def test_error_positions_stay_in_bounds_under_corruption():
    # Position fidelity: mangle real sources and check every reported
    # error position lands inside the input.
    import random

    from corolower.errors import MiniError
    from conftest import CORPUS_FILES

    rng = random.Random(7)
    junk = ["@", "}", ")", "yield", "=", "let", "1 1", "&&", "next"]
    for path in CORPUS_FILES[:6]:
        source = path.read_text()
        for _ in range(40):
            at = rng.randrange(len(source))
            mangled = source[:at] + rng.choice(junk) + source[at:]
            try:
                parse_source(mangled)
            except MiniError as err:
                if err.line is None:
                    continue
                lines = mangled.split("\n")
                assert 1 <= err.line <= len(lines)
                assert 1 <= err.col <= len(lines[err.line - 1]) + 2


def nested_parens(depth):
    return "fn main() { print(" + "(" * depth + "1" + ")" * depth + ") }"


def test_nesting_limit_is_a_validation_error_with_a_position():
    # The body and print's argument are two levels, so the 150th `(` (col
    # 18 + 150) opens level 151.
    with pytest.raises(ValidationError, match="nesting too deep") as err:
        parse_source(nested_parens(3000))
    assert (err.value.line, err.value.col) == (1, 168)
    assert MAX_NESTING == 150


def test_nesting_limit_boundary():
    # Parentheses, unary operators and blocks each cost a level.
    program = parse_source(nested_parens(MAX_NESTING - 2))
    assert program.decls[0].body.stmts[0].value == IntLit(1)
    parse_source("fn main() { print(" + "-" * (MAX_NESTING - 2) + "1) }")
    parse_source("fn main() {\n" + "if (true) {\n" * (MAX_NESTING - 1) + "}\n" * (MAX_NESTING - 1) + "}")
    for source in (
        nested_parens(MAX_NESTING - 1),
        "fn main() { print(" + "-" * (MAX_NESTING - 1) + "1) }",
        "fn main() {\n" + "if (true) {\n" * MAX_NESTING + "}\n" * MAX_NESTING + "}",
    ):
        with pytest.raises(ValidationError, match="nesting too deep"):
            parse_source(source)
