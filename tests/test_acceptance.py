"""Acceptance criteria, one test per criterion, each printing a PASS line
on success (run with `pytest tests/test_acceptance.py -v -s`). Every
tolerance is exact: the properties are structural counts, byte-identical
outputs, and trace equality — there are no numeric tolerances to tune,
and no timing claims beyond the suite budgets asserted here.
"""

import time

from corolower.cfg import build_cfg, eval_cfg, merge_blocks
from corolower.defunc import defunctionalize
from corolower.interp import (
    NULL,
    Interpreter,
    interp,
    interp_native,
    render_output,
    resume_sequence,
)
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import FuncLit, walk
from corolower.transform import transform_program

from conftest import CORPUS_FILES, FIB_SOURCE
from randgen import random_program
from test_transform import dispatch_states

FIB_EXPECTED = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def test_criterion_1_fib_golden():
    started = time.perf_counter()
    program = parse_source(FIB_SOURCE)
    native = interp_native(program)
    assert native == FIB_EXPECTED
    lowered = transform_program(program, True)
    first_order = defunctionalize(lowered)
    native_text = render_output(native)
    assert render_output(interp(lowered)) == native_text
    assert render_output(interp(first_order)) == native_text
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fib runs took {elapsed:.3f}s"
    report(1, "fib prints 0,1,1,2,3,5,8,13,21,34 identically in all three forms")


def test_criterion_2_state_count_golden():
    fib = parse_source(FIB_SOURCE).decls[0]
    from corolower.transform import rewrite_generator

    assert dispatch_states(rewrite_generator(fib, True)) == 3
    assert dispatch_states(rewrite_generator(fib, False)) == 4
    assert len(merge_blocks(build_cfg(fib)).blocks) == 3
    assert len(build_cfg(fib).blocks) == 4
    report(2, "lowered fib has exactly 3 dispatch states optimized, 4 unoptimized")


def test_criterion_3_simple_coroutine_golden():
    source = "fn* f(n) { let x = yield n yield n + x } fn main() { }"
    program = parse_source(source)
    forms = {
        "native": program,
        "lowered": transform_program(program, True),
        "first-order": defunctionalize(transform_program(program, True)),
    }
    # It yields 5 and 8, then every form produces null from the finish on.
    for name, form in forms.items():
        seq = resume_sequence(form, "f", [5], [NULL, 3, NULL, NULL])
        assert seq == [5, 8, NULL, NULL], name
    report(3, "the two-yield coroutine yields [5, 8] then terminates in all forms")


def test_criterion_4_differential_corpus():
    assert len(CORPUS_FILES) >= 12
    started = time.perf_counter()
    script = [NULL] + list(range(1, 100))
    divergences = []
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        forms = {
            "lowered-opt": transform_program(program, True),
            "lowered-noopt": transform_program(program, False),
        }
        forms["first-order"] = defunctionalize(forms["lowered-opt"])
        reference = Interpreter(program).run()
        for name, form in forms.items():
            if Interpreter(form).run() != reference:
                divergences.append((path.name, name, "program output"))
        for decl in program.decls:
            if not decl.is_generator:
                continue
            args = list(range(1, len(decl.params) + 1))
            native_seq = resume_sequence(program, decl.name, args, script)
            for name, form in forms.items():
                if resume_sequence(form, decl.name, args, script) != native_seq:
                    divergences.append((path.name, name, decl.name))
    elapsed = time.perf_counter() - started
    assert divergences == []
    assert elapsed < 10.0, f"corpus suite took {elapsed:.3f}s"
    report(
        4,
        f"{len(CORPUS_FILES)} corpus programs agree across all four forms "
        f"over 100 resumptions in {elapsed:.2f}s",
    )


def test_criterion_5_merge_preserves_semantics():
    script = [NULL] + list(range(1, 100))
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        for decl in program.decls:
            if not decl.is_generator:
                continue
            bindings = dict(
                zip(decl.params, range(1, len(decl.params) + 1))
            )
            graph = build_cfg(decl)
            merged = merge_blocks(graph)
            before = eval_cfg(graph, bindings, script, program)
            after = eval_cfg(merged, bindings, script, program)
            assert before == after, (path.name, decl.name)
            native = resume_sequence(program, decl.name, list(bindings.values()), script)
            assert before == native, (path.name, decl.name)
            assert merge_blocks(merged) == merged, (path.name, decl.name)
    report(5, "eval_cfg traces are identical before/after merging; merging is idempotent")


def test_criterion_6_first_order_purity():
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        first_order = defunctionalize(transform_program(program, True))
        assert not any(d.is_generator for d in first_order.decls), path.name
        for decl in first_order.decls:
            assert not any(
                isinstance(node, FuncLit) for node in walk(decl.body)
            ), (path.name, decl.name)
        reparsed = parse_source(print_source(first_order))
        assert reparsed == first_order, path.name
        assert Interpreter(reparsed).run() == Interpreter(program).run(), path.name
    report(6, "first-order outputs are closure- and generator-free, reparse, and rerun")


def test_criterion_7_roundtrip():
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        assert parse_source(print_source(program)) == program, path.name
    for seed in range(500):
        program = random_program(seed)
        assert parse_source(print_source(program)) == program, f"seed {seed}"
    report(7, "parse-print identity holds on the corpus and 500 random programs")


def test_criterion_8_no_performance_claims():
    # The source work reports no quantitative performance results
    # (performance analysis is future work), so the only timing
    # assertions in this suite are the budgets in criteria 1 and 4;
    # everything else is oracle equivalence and structural goldens.
    report(8, "no performance figures to reproduce; acceptance is equivalence-based")
