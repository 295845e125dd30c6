from dataclasses import fields

import pytest

from corolower import parser, printer, syntax
from corolower.cli import program_forms
from corolower.interp import _EXPR, _STMT
from corolower.defunc import defunctionalize
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import (
    CLOSURES,
    EXPRESSIONS,
    Binary,
    Block,
    BoolLit,
    FuncDecl,
    FuncLit,
    If,
    IntLit,
    Let,
    Print,
    Program,
    Return,
    Var,
    declared_locals,
    map_tree,
    nesting,
    walk,
)
from corolower.transform import transform_program

from conftest import CORPUS_FILES, FIB_SOURCE, outside_closures
from genfuzz import closure_generator_program

# One program that uses every construct of the grammar.
EVERY_NODE_SOURCE = """
fn* g(a) {
  let x = yield a
  yield -x
  return
}

fn main() {
  let r = { f: &g, h: fn (b) { return b } }
  r.f = null
  if (true) { print(r.f) } else { }
  while (false) { }
  let n = next(g(1), 2)
  n = 1 + n
  r.h(n)
  switch (n) case 0 { } case 3 { print(n) } else { }
}
"""


def all_forms(program):
    lowered = [transform_program(program, opt) for opt in (True, False)]
    return [program, *lowered, *(defunctionalize(p) for p in lowered)]


def concrete_node_classes():
    abstract = {syntax.Node, syntax.Expr, syntax.Stmt}
    return {
        cls
        for cls in vars(syntax).values()
        if isinstance(cls, type) and issubclass(cls, syntax.Node) and cls not in abstract
    }


def test_every_node_kind_has_an_evaluator_and_a_printer():
    # The interpreter and the printer dispatch on a node's class through
    # their tables; a kind missing from one would fail only when met.
    exprs = {cls for cls in concrete_node_classes() if issubclass(cls, syntax.Expr)}
    stmts = {cls for cls in concrete_node_classes() if issubclass(cls, syntax.Stmt)}
    assert set(_EXPR) == exprs == set(printer._EXPR)
    assert set(_STMT) == stmts == set(printer._STMT)


def test_children_are_what_walk_visits_right_under_a_node():
    for program in [parse_source(EVERY_NODE_SOURCE), *all_forms(parse_source(FIB_SOURCE))]:
        for node in walk(program):
            under = [n for child in syntax.children(node) for n in walk(child)]
            assert list(map(id, walk(node))) == [id(node), *map(id, under)]


def test_identifiers_are_collected_once_per_program(monkeypatch):
    collected = []
    names = syntax._names
    monkeypatch.setattr(syntax, "_names", lambda root: collected.append(root) or names(root))
    program = parse_source(FIB_SOURCE)
    forms = program_forms(program)
    # Both lowerings read the source's names, defunctionalize the lowered ones.
    assert list(map(id, collected)) == [id(program), id(forms["lowered-opt"])]


def test_lowering_leaves_its_input_as_it_was_and_prints_the_same_when_cached():
    cold = {
        opt: print_source(transform_program(parse_source(FIB_SOURCE), opt)) for opt in (True, False)
    }
    program, copy = parse_source(FIB_SOURCE), parse_source(FIB_SOURCE)
    assert program.identifiers == copy.identifiers
    for opt in (True, False):
        assert print_source(transform_program(program, opt)) == cold[opt]
        assert program == copy


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_walk_yields_the_nodes_map_tree_maps(path):
    for program in all_forms(parse_source(path.read_text())):
        mapped = []

        def record(node):
            mapped.append(node)
            return node

        assert map_tree(program, record) is program
        walked = list(walk(program))
        assert len({id(n) for n in walked}) == len(walked)
        assert sorted(map(id, walked)) == sorted(map(id, mapped))


def test_walk_reaches_every_node_class():
    # A node class whose children walk missed would hide its subtree.
    program = parse_source(EVERY_NODE_SOURCE)
    assert {type(n) for n in walk(program)} == concrete_node_classes()


def test_walk_is_pre_order_in_source_order():
    program = parse_source("fn main() { if (a) { print(1 - 2) } else { c = 3 } }")
    shape = [
        type(n).__name__ + (f" {n.value}" if isinstance(n, IntLit) else "")
        for n in walk(program)
    ]
    assert shape == [
        "Program", "FuncDecl", "Block", "If", "Var", "Block", "Print",
        "Binary", "IntLit 1", "IntLit 2", "Block", "Assign", "IntLit 3",
    ]  # fmt: skip
    # A fn literal's body is walked too.
    body = parse_source("fn main() { let f = fn (a) { let b = a return b } }").decls[0].body
    assert [type(n).__name__ for n in walk(body)] == [
        "Block", "Let", "FuncLit", "Block", "Let", "Var", "Return", "Var",
    ]  # fmt: skip


def stop_set_programs():
    """Every form of each corpus program, EVERY_NODE_SOURCE, fib's forms
    and 50 generators holding a closure."""
    for path in CORPUS_FILES:
        yield from program_forms(parse_source(path.read_text())).values()
    yield parse_source(EVERY_NODE_SOURCE)
    yield from all_forms(parse_source(FIB_SOURCE))
    for seed in range(50):
        yield closure_generator_program(seed)


def test_walk_stopping_at_closures_visits_what_the_reference_does():
    # outside_closures is the tests' own walk: a fn literal is listed and
    # its body not entered. Checked from each program and each literal.
    for program in stop_set_programs():
        literals = [n for n in walk(program) if type(n) is FuncLit]
        for root in [program, *(literal.body for literal in literals)]:
            walked = list(walk(root, CLOSURES))
            assert len({id(n) for n in walked}) == len(walked)
            assert {id(n) for n in walked} == {id(n) for n in outside_closures(root)}


def test_walk_stopping_at_expressions_enters_none():
    # Every node with no expression above it in the block, each once, in
    # walk's order: the statements, the blocks under them and their
    # top-level expressions, and nothing inside an expression.
    for program in stop_set_programs():
        for block in (n for n in walk(program) if type(n) is Block):
            walked = list(walk(block, EXPRESSIONS))
            entered = {
                id(n)
                for expr in walked
                if isinstance(expr, syntax.Expr)
                for child in syntax.children(expr)
                for n in walk(child)
            }
            assert not entered & {id(n) for n in walked}
            outside = [n for n in walk(block) if id(n) not in entered]
            assert list(map(id, walked)) == list(map(id, outside))


def test_declared_locals_keeps_first_occurrence_order():
    program = parse_source(
        "fn* g() { let b = 1 if (b) { let a = 2 let b = 3 } let a = yield 4 } "
        "fn main() { let f = fn (a) { let b = a return b } }"
    )
    assert declared_locals(program.decls[0].body) == ["b", "a"]
    # A closure's locals are its own.
    assert declared_locals(program.decls[1].body) == ["f"]


def test_deeply_nested_ast_walks_without_recursion():
    depth = 3000
    body = Block([Print(Var("x0"))])
    for k in range(depth):
        body = Block([Let(f"x{k}", IntLit(k)), If(BoolLit(True), body)])
    closure = FuncLit(["p"], Block([Return(Var("p"))]))
    for _ in range(depth):
        closure = FuncLit(["p"], Block([Return(closure)]))
    body.stmts.append(Return(Binary("+", closure, Var("y"))))
    program = Program([FuncDecl("main", [], False, body)])
    assert declared_locals(body) == [f"x{k}" for k in reversed(range(depth))]
    assert program.identifiers == (
        {"main", "p", "y"} | {f"x{k}" for k in range(depth)}
    )


def test_nesting_counts_blocks_once_and_expressions_twice():
    stmt = parse_source("fn main() { if (x < 1) { x = -(a + b) } }").decls[0].body.stmts[0]
    # The block, the unary minus, the sum and `b`; the parser counts 5.
    assert nesting(stmt) == 7


@pytest.mark.parametrize("path", [*CORPUS_FILES, None], ids=lambda p: p.stem if p else "every-node")
def test_nesting_bounds_what_the_parser_counts(monkeypatch, path):
    # With its limit at the bound, the parser reads every form back.
    if path is None:  # its closure in main has no first-order form
        forms = [parse_source(EVERY_NODE_SOURCE)]
    else:
        forms = all_forms(parse_source(path.read_text()))
    for program in forms:
        bound = max(nesting(decl.body) for decl in program.decls)
        monkeypatch.setattr(parser, "MAX_NESTING", bound)
        assert parse_source(print_source(program)) == program


def holds_a_node(value):
    if isinstance(value, syntax.Node):
        return True
    return isinstance(value, (list, tuple)) and any(map(holds_a_node, value))


def test_node_fields_leave_out_only_fields_without_nodes():
    program = parse_source(EVERY_NODE_SOURCE)
    for node in [n for form in (program, *all_forms(parse_source(FIB_SOURCE))) for n in walk(form)]:
        kept = syntax._node_fields(type(node))
        for field in fields(node):
            if field.name != "pos" and field.name not in kept:
                assert not holds_a_node(getattr(node, field.name)), (node, field.name)
    # The walks skip the fields of exactly the kinds that hold no node.
    assert syntax.LEAVES == {cls for cls in concrete_node_classes() if not syntax._node_fields(cls)}


def test_map_tree_rebuilds_a_block_without_its_cached_measures():
    program = parse_source("fn* g() { let a = 1 if (a) { yield a } } fn main() { }")
    body = program.decls[0].body
    assert (body.declared, body.exits, body.depth) == (["a"], True, 4)

    def rename_and_print(node):
        if type(node) is syntax.YieldStmt:
            return Print(node.value, pos=node.pos)
        if type(node) is Let:
            return Let("b", node.value, pos=node.pos)
        return node

    # map_tree itself rebuilds both blocks: rename_and_print returns them as is.
    new = map_tree(body, rename_and_print)
    assert new.stmts[0].pos == body.stmts[0].pos
    assert (new.declared, new.exits, new.depth) == (["b"], False, 4)
    assert new.stmts[1].then.exits is False
