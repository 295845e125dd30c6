import os
import runpy
import subprocess
import sys

import pytest

from corolower.cfg import (
    END,
    BasicBlock,
    Branch,
    Cfg,
    Finish,
    Goto,
    YieldTo,
    build_cfg,
    check_cfg,
    _check_merged,
    emit_dot,
    merge_blocks,
    targets,
)
from corolower.errors import InterpError, TransformError
from corolower.interp import resume_sequence
from corolower.parser import MAX_NESTING, parse_source
from corolower import syntax
from corolower.syntax import (
    Assign,
    Block,
    BoolLit,
    If,
    IntLit,
    Let,
    LetYield,
    Print,
    Return,
    Stmt,
    Var,
    While,
    YieldStmt,
    blocks_under,
    nesting,
    stmt_nesting,
    walk,
)
from corolower import transform
from corolower.transform import LOWERED_DEPTH, plan_generator

from cfg_oracle import eval_cfg, yield_count
from conftest import CORPUS_FILES, FIB_SOURCE, TESTS_DIR, outside_closures, wide_source
from genfuzz import closure_generator_program, random_generator_program
from randgen import random_program


def gen_decl(body_source, params=""):
    program = parse_source(f"fn* g({params}) {{ {body_source} }} fn main() {{ }}")
    return program.decls[0]


def fib_decl():
    return parse_source(FIB_SOURCE).decls[0]


def test_fib_unmerged_shape():
    # Paper figure: 1 init, 2 test, 3 yield, 4 step, back edge 4 -> 2,
    # and the loop-exit arm leaves the function.
    graph = build_cfg(fib_decl())
    assert sorted(graph.blocks) == [1, 2, 3, 4]
    assert graph.entry == 1
    init = graph.blocks[1]
    assert [type(s) for s in init.stmts] == [Let, Let]
    assert init.terminator == Goto(2)
    test = graph.blocks[2]
    assert test.stmts == []
    assert test.terminator == Branch(BoolLit(True), 3, END)
    yld = graph.blocks[3]
    assert yld.stmts == []
    assert yld.terminator == YieldTo(Var("a"), None, 4)
    step = graph.blocks[4]
    assert len(step.stmts) == 3
    assert step.terminator == Goto(2)


def test_fib_merged_shape():
    # Three blocks, matching the three dispatch cases of the rewritten fib.
    graph = merge_blocks(build_cfg(fib_decl()))
    assert sorted(graph.blocks) == [1, 2, 3]
    assert [type(s) for s in graph.blocks[1].stmts] == [Let, Let]
    assert graph.blocks[1].terminator == Goto(2)
    assert graph.blocks[2].terminator == YieldTo(Var("a"), None, 3)
    assert graph.blocks[3].terminator == Goto(2)


def test_single_yield_two_blocks():
    # A let-yield's resume block binds the receiver, so it stays even when
    # it only finishes; a plain yield there resumes at END.
    graph = build_cfg(gen_decl("let x = yield 1"))
    assert sorted(graph.blocks) == [1, 2]
    assert graph.blocks[1].terminator == YieldTo(IntLit(1), "x", 2)
    assert graph.blocks[2].stmts == []
    assert graph.blocks[2].terminator == Finish(None)
    plain = build_cfg(gen_decl("yield 1"))
    assert sorted(plain.blocks) == [1]
    assert plain.blocks[1].terminator == YieldTo(IntLit(1), None, END)


def test_branchy_yields_five_blocks():
    # Enumerated by hand: branch, then-yield, else-yield, join-yield and the
    # receiver's finish; with a plain join yield, the finish is END.
    body = "if (x) { yield 1 } else { yield 2 } let y = yield 3"
    graph = build_cfg(gen_decl(body, "x"))
    assert sorted(graph.blocks) == [1, 2, 3, 4, 5]
    assert graph.blocks[1].terminator == Branch(Var("x"), 2, 3)
    assert graph.blocks[2].terminator == YieldTo(IntLit(1), None, 4)
    assert graph.blocks[3].terminator == YieldTo(IntLit(2), None, 4)
    assert graph.blocks[4].terminator == YieldTo(IntLit(3), "y", 5)
    assert graph.blocks[5].terminator == Finish(None)
    plain = build_cfg(gen_decl("if (x) { yield 1 } else { yield 2 } yield 3", "x"))
    assert sorted(plain.blocks) == [1, 2, 3, 4]
    assert plain.blocks[4].terminator == YieldTo(IntLit(3), None, END)


def test_empty_body_single_finish_block():
    graph = build_cfg(gen_decl(""))
    assert sorted(graph.blocks) == [1]
    assert graph.blocks[1].terminator == Finish(None)


def test_return_statement_finishes():
    graph = build_cfg(gen_decl("yield 1 return 7"))
    finish = graph.blocks[2]
    assert finish.terminator == Finish(IntLit(7))


def test_unreachable_code_after_return_dropped():
    graph = build_cfg(gen_decl("return 1 yield 2"))
    assert sorted(graph.blocks) == [1]
    assert yield_count(graph) == 0


def test_letyield_receiver_on_terminator():
    graph = build_cfg(gen_decl("let x = yield 1 yield x"))
    assert graph.blocks[1].terminator == YieldTo(IntLit(1), "x", 2)


def test_receivers_in_both_arms_get_distinct_resume_blocks():
    graph = build_cfg(
        gen_decl("if (f) { let x = yield 1 } else { let y = yield 2 } yield 9", "f")
    )
    resumes = {
        b.terminator.receiver: b.terminator.resume
        for b in graph.blocks.values()
        if isinstance(b.terminator, YieldTo) and b.terminator.receiver
    }
    assert set(resumes) == {"x", "y"}
    assert resumes["x"] != resumes["y"]


def test_else_arm_and_plain_resume_into_an_empty_finish_go_to_end():
    # The join is an empty finish that is both the else arm and the yield's
    # resume target: both edges leave at END and the join is dropped. A
    # let-yield keeps its own resume block; the else arm still leaves.
    graph = build_cfg(gen_decl("if (c) { yield 1 }", "c"))
    expected = {1: Branch(Var("c"), 2, END), 2: YieldTo(IntLit(1), None, END)}
    assert {bid: b.terminator for bid, b in graph.blocks.items()} == expected
    assert merge_blocks(graph) == graph
    graph = build_cfg(gen_decl("if (c) { let x = yield 1 }", "c"))
    expected = {
        1: Branch(Var("c"), 2, END),
        2: YieldTo(IntLit(1), "x", 3),
        3: Finish(None),
    }
    assert {bid: b.terminator for bid, b in graph.blocks.items()} == expected
    assert merge_blocks(graph) == graph
    assert all(not b.stmts for b in graph.blocks.values())


def test_empty_receiver_block_survives_build_and_merge():
    graph = build_cfg(gen_decl("let x = yield 1 while (x < 3) { x = x + 1 }"))
    for g in (graph, merge_blocks(graph)):
        assert g.blocks[1].terminator == YieldTo(IntLit(1), "x", 2)
        assert g.blocks[2].stmts == []
        assert g.blocks[2].terminator == Goto(3)


def test_yield_counts_match_source():
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        for decl in program.decls:
            if not decl.is_generator:
                continue
            source_yields = sum(
                isinstance(node, (YieldStmt, LetYield))
                for node in walk(decl.body)
            )
            assert yield_count(build_cfg(decl)) == source_yields, decl.name


def test_build_cfg_requires_generator():
    program = parse_source("fn main() { }")
    with pytest.raises(TransformError):
        build_cfg(program.decls[0])


def shape(graph):
    """Each block's statement count, terminator kind and targets."""
    return {
        bid: (len(b.stmts), type(b.terminator).__name__, targets(b.terminator))
        for bid, b in graph.blocks.items()
    }


@pytest.mark.parametrize(
    "body, split, opt",
    [
        ("", {1: (0, "Finish", [])}, {1: (0, "Finish", [])}),
        ("while (true) { }", {1: (0, "Branch", [1, END])}, {1: (0, "Goto", [1])}),
        (
            "while (true) { return }",
            {1: (0, "Branch", [END, END])},
            {1: (0, "Finish", [])},
        ),
        (
            "while (true) { while (true) { } }",
            {1: (0, "Branch", [2, END]), 2: (0, "Branch", [2, 1])},
            {1: (0, "Goto", [1])},
        ),
        (
            "while (true) { while (x < 3) { x = x + 1 yield x } }",
            {1: (0, "Branch", [2, END]), 2: (0, "Branch", [3, 1]), 3: (1, "YieldTo", [2])},
            {1: (0, "Branch", [2, 1]), 2: (1, "YieldTo", [1])},
        ),
        (
            "while (true) { let y = yield 1 }",
            {1: (0, "Branch", [2, END]), 2: (0, "YieldTo", [3]), 3: (0, "Goto", [1])},
            {1: (0, "YieldTo", [2]), 2: (0, "Goto", [1])},
        ),
        (
            "if (true) { return } yield 1",
            {1: (0, "Branch", [END, 2]), 2: (0, "YieldTo", [END])},
            {1: (0, "Finish", [])},
        ),
    ],
)
def test_edge_shapes(body, split, opt):
    # Empty bodies, endless loops that are empty, return or nest, a
    # receiver that loops back, and a literal `if` that returns: each
    # graph block by block, split and optimized.
    decl = gen_decl(body, "x")
    assert shape(build_cfg(decl)) == split
    assert shape(build_cfg(decl, True)) == opt


# -- the optimized graph -------------------------------------------------------


def stmt_kinds(graph):
    return {bid: [type(s) for s in b.stmts] for bid, b in graph.blocks.items()}


def test_optimized_cfg_keeps_yield_free_statements_whole():
    # The `if` and the inner `while` hold no yield and stay statements of
    # block 3; the outer `while` holds the yield and is split.
    decl = gen_decl(
        "let i = 0 while (i < n) { if (i % 2 == 0) { let d = 1 } else { d = 2 } "
        "let j = 0 while (j < i) { j = j + 1 } yield i + j i = i + 1 }",
        "n",
    )
    graph = build_cfg(decl, True)
    assert stmt_kinds(graph) == {1: [Let], 2: [], 3: [If, Let, While], 4: [Assign]}
    assert isinstance(graph.blocks[2].terminator, Branch)
    assert isinstance(graph.blocks[3].terminator, YieldTo)
    # Unoptimized, every `if` and `while` is split, as before.
    assert build_cfg(decl) == build_cfg(decl, False)
    assert len(build_cfg(decl).blocks) == 10
    assert not any(If in kinds or While in kinds for kinds in stmt_kinds(build_cfg(decl)).values())


def test_optimized_cfg_splits_statements_that_leave_the_generator():
    # A return or a let-yield inside splits the statement; a closure's own
    # return does not.
    for body in ("if (c) { return 1 } yield 2", "while (c) { let x = yield 1 c = x }"):
        graph = build_cfg(gen_decl(body, "c"), True)
        assert not any(If in k or While in k for k in stmt_kinds(graph).values()), body
    graph = build_cfg(gen_decl("if (c) { let f = fn () { return 1 } } yield 2", "c"), True)
    assert stmt_kinds(graph)[1] == [If]


def test_optimized_cfg_keeps_only_what_a_literal_test_runs():
    cases = {
        "if (true) { a = 1 } else { a = 2 } yield a": [Assign("a", IntLit(1))],
        "if (false) { a = 1 } else { a = 2 } yield a": [Assign("a", IntLit(2))],
        "if (false) { a = 1 } yield a": [],
        "while (false) { a = a + 1 } yield a": [],
    }
    for body, stmts in cases.items():
        graph = build_cfg(gen_decl(body, "a"), True)
        assert list(graph.blocks) == [1], body
        assert graph.blocks[1].stmts == stmts, body
        assert graph.blocks[1].terminator == YieldTo(Var("a"), None, END), body
    # `while (true)` stays a loop of the graph even without a yield: its
    # test is a goto, so the body's one block jumps back to itself.
    graph = build_cfg(gen_decl("while (true) { a = a + 1 }", "a"), True)
    assert graph.blocks[1].terminator == Goto(1)
    assert not any(While in kinds for kinds in stmt_kinds(graph).values())


def test_a_resume_into_an_endless_loop_that_returns_ends_the_machine():
    # The optimized `while (true)` leaves no literal branch for merge_blocks
    # to fold after build_cfg routed the resume edge, so the edge goes to
    # END and the machine has one state, not a second that only finishes.
    decl = gen_decl("yield 1 while (true) { return }")
    graph = build_cfg(decl, True)
    assert graph.blocks == {1: BasicBlock(1, [], YieldTo(IntLit(1), None, END))}
    assert merge_blocks(graph) == graph
    assert plan_generator(decl)[1].states == [1]


def nested_ifs(depth):
    """`depth` nested yield-free `if (x < k)` around `x = x + 1`, then a
    yield; the statement nests depth + 4 levels by syntax.nesting."""
    opens = "".join(f"if (x < {k}) {{ " for k in range(depth))
    return gen_decl(f"{opens}x = x + 1 {'} ' * depth}yield x", "x")


def test_optimized_cfg_keeps_room_for_the_lowering():
    # The levels the lowering adds above a block's statement (8 with
    # CHAIN_MAX 4: the optimized chain of three nests deepest) and the
    # statement's own must fit in the parser's limit; a deeper statement
    # is split at its top until the rest fits. nested_ifs(d) nests d + 4
    # levels, so room - 4 is the deepest whole nest. A bound of 9, a level
    # more than any machine nests, split this one: it was room - 3 there.
    assert LOWERED_DEPTH == 8
    room = MAX_NESTING - LOWERED_DEPTH
    fits = build_cfg(nested_ifs(room - 4), True)
    assert stmt_kinds(fits) == {1: [If]}
    deeper = build_cfg(nested_ifs(room - 3), True)
    assert stmt_kinds(deeper) == {1: [], 2: [If], 3: []}
    assert isinstance(deeper.blocks[1].terminator, Branch)


def node_visits(monkeypatch, build):
    """How many nodes the tree walks of syntax visit while build() runs:
    each looks up the node fields of every node it visits."""
    visits = 0
    node_fields = syntax._node_fields

    def counting(cls):
        nonlocal visits
        visits += 1
        return node_fields(cls)

    monkeypatch.setattr(syntax, "_node_fields", counting)
    build()
    monkeypatch.undo()
    return visits


@pytest.mark.parametrize("inner", ["yield x", "x = x + 1"])
def test_optimized_build_measures_a_deep_nest_once(monkeypatch, inner):
    # At every level it splits, the build asks whether the rest holds a
    # yield or a return and how deep it nests. Blocks cache both, so the
    # build stays linear; recomputing them from each level visited 73 and
    # 28 times the nest's nodes.
    opens = "".join(f"if (x < {k}) {{ " for k in range(146))
    decl = gen_decl(f"{opens}{inner} {'} ' * 146}", "x")
    nodes = sum(1 for _ in walk(decl))
    assert node_visits(monkeypatch, lambda: build_cfg(decl, True)) <= 2 * nodes


def test_stmt_nesting_matches_nesting():
    programs = [parse_source(path.read_text()) for path in CORPUS_FILES]
    programs += [random_program(seed) for seed in range(100)]
    programs += [random_generator_program(seed, True)[0] for seed in range(100)]
    for program in programs:
        for node in walk(program):
            if isinstance(node, Stmt):
                assert stmt_nesting(node) == nesting(node), node
                for block in blocks_under(node):
                    assert block.depth == nesting(block)
                    assert block.exits == any(
                        type(n) in (YieldStmt, LetYield, Return)
                        for n in outside_closures(block)
                    )


def test_check_cfg_rejects_a_yield_or_return_inside_a_block_statement():
    kept = If(Var("c"), Block([Print(IntLit(1))]), None)
    check_cfg(Cfg({1: BasicBlock(1, [kept], Finish())}, 1))
    for inner in (YieldStmt(IntLit(1)), LetYield("x", IntLit(1)), Return(None)):
        for stmt in (If(Var("c"), Block([inner]), None), While(Var("c"), Block([inner]))):
            graph = Cfg({1: BasicBlock(1, [stmt], Finish())}, 1)
            with pytest.raises(AssertionError, match="yield or return inside block 1"):
                check_cfg(graph)
    with pytest.raises(AssertionError, match="yield or return inside block 1"):
        check_cfg(Cfg({1: BasicBlock(1, [YieldStmt(IntLit(1))], Finish())}, 1))


def test_check_cfg_and_merge_blocks_refuse_a_goto_to_end():
    # build_cfg makes such a goto a finish; merging it would look END up
    # among the blocks.
    graph = Cfg({1: BasicBlock(1, [Assign("a", IntLit(1))], Goto(END))}, 1)
    for check in (check_cfg, merge_blocks):
        with pytest.raises(AssertionError, match="goto 1 -> END instead of a finish"):
            check(graph)
    finished = Cfg({1: BasicBlock(1, [Assign("a", IntLit(1))], Finish())}, 1)
    check_cfg(finished)
    assert merge_blocks(finished) == finished


# Two let-yields resume at block 2; build_cfg gives each its own block.
TWO_RECEIVERS = """Cfg(
    {
        1: BasicBlock(1, [], YieldTo(IntLit(1), "x", 2)),
        2: BasicBlock(2, [], YieldTo(IntLit(2), "y", 2)),
    },
    1,
)"""


def test_the_lowering_refuses_two_receivers_at_one_state():
    with pytest.raises(AssertionError, match="two receivers resume at one state"):
        transform._receivers(eval(TWO_RECEIVERS))
    one = Cfg({1: BasicBlock(1, [], YieldTo(IntLit(1), "x", 2)), 2: BasicBlock(2, [], Finish())}, 1)
    assert transform._receivers(one) == {2: "x"}


def test_the_graph_checks_hold_under_python_dash_o():
    # The checks raise AssertionError themselves, so `python -O`, which
    # drops assert statements, keeps them.
    script = f"""
from corolower.cfg import END, BasicBlock, Cfg, Goto, YieldTo, merge_blocks
from corolower.syntax import IntLit
from corolower.transform import _receivers
for check in (
    lambda: merge_blocks(Cfg({{1: BasicBlock(1, [], Goto(END))}}, 1)),
    lambda: _receivers({TWO_RECEIVERS}),
):
    try:
        check()
    except AssertionError as err:
        print(err)
"""
    env = dict(os.environ, PYTHONPATH=str(TESTS_DIR.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "goto 1 -> END instead of a finish",
        "two receivers resume at one state",
    ]


# -- merging -------------------------------------------------------------------


def chain_cfg():
    # A -> goto B -> goto C, each with one predecessor.
    return Cfg(
        {
            1: BasicBlock(1, [Assign("a", IntLit(1))], Goto(2)),
            2: BasicBlock(2, [Assign("a", IntLit(2))], Goto(3)),
            3: BasicBlock(3, [Assign("a", IntLit(3))], Finish(Var("a"))),
        },
        1,
    )


def test_merge_concatenates_goto_chain():
    merged = merge_blocks(chain_cfg())
    assert sorted(merged.blocks) == [1]
    block = merged.blocks[1]
    assert [s.value.value for s in block.stmts] == [1, 2, 3]
    assert block.terminator == Finish(Var("a"))


def test_merge_identity_when_nothing_applies():
    graph = Cfg(
        {
            1: BasicBlock(1, [], Branch(Var("p"), 2, 3)),
            2: BasicBlock(2, [], YieldTo(IntLit(1), None, 3)),
            3: BasicBlock(3, [Assign("a", IntLit(1))], Finish(None)),
        },
        1,
    )
    assert merge_blocks(graph) == graph


def test_merge_folds_constant_branches():
    graph = Cfg(
        {
            1: BasicBlock(1, [], Branch(BoolLit(False), 2, 3)),
            2: BasicBlock(2, [], YieldTo(IntLit(1), None, 3)),
            3: BasicBlock(3, [], YieldTo(IntLit(2), None, 3)),
        },
        1,
    )
    merged = merge_blocks(graph)
    # False branch folds to a goto; the then-arm yield becomes unreachable.
    assert yield_count(merged) == 1
    assert merged.blocks[1].terminator == Goto(2)
    assert merged.blocks[2].terminator == YieldTo(IntLit(2), None, 2)


def test_merge_ignores_edges_from_blocks_a_fold_cuts_off():
    # Once `if (false)` folds, its then-arm is dead, so the join has one
    # predecessor left and is absorbed in the same pass.
    graph = build_cfg(gen_decl("if (false) { a = 1 } else { a = 2 } print(a) yield a", "a"))
    assert len(graph.blocks) == 4
    merged = merge_blocks(graph)
    assert sorted(merged.blocks) == [1]
    assert merged.blocks[1].stmts == [Assign("a", IntLit(2)), Print(Var("a"))]
    assert merged.blocks[1].terminator == YieldTo(Var("a"), None, END)


def test_build_routes_resume_into_empty_finish_to_end():
    graph = build_cfg(gen_decl("let x = yield 1 yield n + x", "n"))
    assert sorted(graph.blocks) == [1, 2]
    assert graph.blocks[2].terminator == YieldTo(
        parse_source("fn main() { print(n + x) }").decls[0].body.stmts[0].value,
        None,
        END,
    )
    assert merge_blocks(graph) == graph


def swept_generators():
    """The corpus's generators, the benchmark workloads' (wide-states and
    deep-states are the wide family at 100 and 800 arms), and the
    generators of the fuzz sweeps' first 400 seeds."""
    decls = [
        decl
        for path in CORPUS_FILES
        for decl in parse_source(path.read_text()).decls
        if decl.is_generator
    ]
    workloads = runpy.run_path(str(TESTS_DIR.parent / "perfbench" / "workloads.py"))["WORKLOADS"]
    decls += [parse_source(make(1).source).decls[0] for make in workloads.values()]
    for seed in range(400):
        decls += [random_generator_program(seed, arm_yields)[0].decls[0] for arm_yields in (True, False)]
        decls.append(closure_generator_program(seed).decls[0])
    return decls


def test_optimized_build_is_already_merged():
    # build_cfg absorbs the goto chains of the lowering's graph itself.
    for decl in swept_generators():
        graph = build_cfg(decl, True)
        assert merge_blocks(graph) == graph, decl.name


def test_the_merged_check_rejects_a_literal_branch_and_a_lone_goto():
    # build_cfg(func, True) and merge_blocks run it on every graph they
    # return; both graphs here are well formed otherwise.
    literal = Cfg(
        {
            1: BasicBlock(1, [], Branch(BoolLit(True), 2, END)),
            2: BasicBlock(2, [], YieldTo(IntLit(1), None, 1)),
        },
        1,
    )
    check_cfg(literal)
    with pytest.raises(AssertionError, match="block 1 branches on a literal"):
        _check_merged(literal)
    check_cfg(chain_cfg())
    with pytest.raises(AssertionError, match="goto 1 -> 2 into a block with no other predecessor"):
        _check_merged(chain_cfg())
    # The split graph keeps fib's literal `while (true)` test, so it is
    # well formed but not merged.
    split = build_cfg(fib_decl())
    check_cfg(split)
    with pytest.raises(AssertionError, match="block 2 branches on a literal"):
        _check_merged(split)
    # A goto into a join, and a self-loop, are merged.
    _check_merged(merge_blocks(split))
    _check_merged(build_cfg(gen_decl("while (true) { a = a + 1 }", "a"), True))


def test_merge_is_idempotent_on_corpus():
    # Built graphs route a plain yield past an empty finish to END, but
    # resume a let-yield at a real block, which binds its receiver.
    for decl in swept_generators():
        for opt in (False, True):
            graph = build_cfg(decl, opt)
            for block in graph.blocks.values():
                term = block.terminator
                if not isinstance(term, YieldTo):
                    continue
                if term.receiver is not None:
                    assert term.resume != END, decl.name
                elif term.resume != END:
                    resume = graph.blocks[term.resume]
                    assert resume.stmts or resume.terminator != Finish(None), decl.name
            once = merge_blocks(graph)
            assert merge_blocks(once) == once, decl.name


def test_build_makes_an_empty_goto_or_finish_only_where_an_edge_needs_one():
    # An empty block that only goes on or finishes is the resume block of
    # a let-yield, which binds the receiver, an entry that finishes, or
    # an endless loop on itself; any other edge goes to its target or END.
    decls = swept_generators()
    decls += [parse_source(wide_source(arms, 1)).decls[0] for arms in (1, 2, 5, 40)]
    for decl in decls:
        for opt in (False, True):
            graph = build_cfg(decl, opt)
            receivers = {
                b.terminator.resume
                for b in graph.blocks.values()
                if isinstance(b.terminator, YieldTo) and b.terminator.receiver
            }
            for bid, block in graph.blocks.items():
                term = block.terminator
                if block.stmts or not (isinstance(term, Goto) or term == Finish(None)):
                    continue
                assert (
                    bid in receivers
                    or (bid == graph.entry and term == Finish(None))
                    or term == Goto(bid)
                ), (decl.name, opt, bid)


def test_merge_validates_and_is_pure():
    graph = build_cfg(fib_decl())
    before = {bid: (list(b.stmts), b.terminator) for bid, b in graph.blocks.items()}
    merged = merge_blocks(graph)
    check_cfg(merged)
    after = {bid: (list(b.stmts), b.terminator) for bid, b in graph.blocks.items()}
    assert before == after


def test_merge_preserves_semantics_via_eval_cfg():
    program = parse_source(FIB_SOURCE)
    decl = program.decls[0]
    graph = build_cfg(decl)
    merged = merge_blocks(graph)
    script = [None] * 10
    t1 = eval_cfg(graph, {}, script, program)
    t2 = eval_cfg(merged, {}, script, program)
    assert t1 == t2
    assert t1 == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert t1 == resume_sequence(program, "fib", [], script)


def test_eval_cfg_entry_finish_value():
    graph = Cfg({1: BasicBlock(1, [], Finish(IntLit(7)))}, 1)
    assert eval_cfg(graph, {}, [None, None]) == [7, None]


def test_eval_cfg_constant_branch_goes_one_way():
    graph = Cfg(
        {
            1: BasicBlock(1, [], Branch(BoolLit(True), 2, 3)),
            2: BasicBlock(2, [], YieldTo(IntLit(1), None, 3)),
            3: BasicBlock(3, [], Finish(None)),
        },
        1,
    )
    assert eval_cfg(graph, {}, [None, None, None]) == [1, None, None]


def test_eval_cfg_receiver_binding():
    graph = build_cfg(gen_decl("let x = yield 1 yield x * 2"))
    assert eval_cfg(graph, {"x": None}, [None, 21, 5]) == [1, 42, None]


def test_eval_cfg_prebinds_locals_whose_let_merging_dropped():
    program = parse_source("fn* g() { if (false) { let x = 1 } yield x } fn main() { }")
    graph = build_cfg(program.decls[0])
    merged = merge_blocks(graph)
    assert not any(block.stmts for block in merged.blocks.values())
    script = [None, None]
    assert resume_sequence(program, "g", [], script) == [None, None]
    assert eval_cfg(graph, {}, script, program) == [None, None]
    assert eval_cfg(merged, {}, script, program) == [None, None]


def test_eval_cfg_error_names_the_resumption():
    program = parse_source("fn* g() { yield 1 yield 1 / 0 } fn main() { }")
    with pytest.raises(InterpError) as err:
        eval_cfg(build_cfg(program.decls[0]), {}, [None, None], program)
    assert str(err.value) == "resumption 1: division by zero (line 1, col 27)"


# -- DOT rendering ---------------------------------------------------------------


def block_nodes(dot: str) -> int:
    return sum(1 for line in dot.splitlines() if "shape=box" in line or "shape=circle" in line)


def test_dot_unmerged_fib():
    dot = emit_dot(build_cfg(fib_decl()), "fib")
    assert block_nodes(dot) == 4
    assert '[label="yes"]' in dot and '[label="no"]' in dot
    assert "bb2 -> end" in dot  # loop exit
    assert "bb4 -> bb2;" in dot  # back edge
    assert 'style=dashed, label="yield a"' in dot
    assert "start ->" in dot


def test_dot_merged_fib():
    dot = emit_dot(merge_blocks(build_cfg(fib_decl())), "fib")
    assert block_nodes(dot) == 3
    assert "bb3 -> bb2;" in dot  # the single back edge
    assert "start" in dot and "end" in dot


def test_dot_finish_with_a_value():
    dot = emit_dot(build_cfg(gen_decl("let v = yield 1 return v")))
    assert 'bb1 -> bb2 [style=dashed, label="yield 1"];' in dot
    assert 'bb2 -> end [label="v"];' in dot


def test_dot_empty_generator():
    dot = emit_dot(build_cfg(gen_decl("")))
    assert block_nodes(dot) == 1
    assert "start -> bb1;" in dot
    assert "bb1 -> end;" in dot
