"""The core property: native, lowered (both ways), and first-order forms
of every corpus program are observationally indistinguishable — same
printed output, same per-resumption results over long scripts, and the
CFG executor agrees with the AST-level generator semantics before and
after merging."""

import pytest

from corolower import transform
from corolower.cfg import build_cfg, merge_blocks
from corolower.defunc import defunctionalize
from corolower.interp import (
    NULL,
    Interpreter,
    resume_sequence,
)
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.transform import CHAIN_MAX, transform_program

from cfg_oracle import eval_cfg
from conftest import CORPUS_FILES, corpus_ids

RESUMPTIONS = 100


def forms_of(program):
    lowered_opt = transform_program(program, True)
    lowered_noopt = transform_program(program, False)
    return {
        "lowered-opt": lowered_opt,
        "lowered-noopt": lowered_noopt,
        "first-order-opt": defunctionalize(lowered_opt),
        "first-order-noopt": defunctionalize(lowered_noopt),
    }


def generator_args(decl):
    return list(range(1, len(decl.params) + 1))


def resume_script():
    return [NULL] + list(range(1, RESUMPTIONS))


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_program_outputs_agree(path):
    program = parse_source(path.read_text())
    reference = Interpreter(program).run()
    for name, form in forms_of(program).items():
        assert Interpreter(form).run() == reference, name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_generator_traces_agree(path):
    program = parse_source(path.read_text())
    script = resume_script()
    for decl in program.decls:
        if not decl.is_generator:
            continue
        args = generator_args(decl)
        reference = resume_sequence(program, decl.name, args, script)
        assert len(reference) == RESUMPTIONS
        for name, form in forms_of(program).items():
            got = resume_sequence(form, decl.name, args, script)
            assert got == reference, (decl.name, name)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_lowered_text_reparses_and_reruns(path):
    # compile-then-run equals run-of-source, through the printed text.
    from corolower.printer import print_source

    program = parse_source(path.read_text())
    reference = Interpreter(program).run()
    for opt in (True, False):
        lowered = transform_program(program, opt)
        reparsed = parse_source(print_source(lowered))
        assert reparsed == lowered
        assert Interpreter(reparsed).run() == reference


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_two_instances_stay_independent(path):
    # Alternating two instances produces each instance's isolated trace.
    from corolower.interp import resume_any

    program = parse_source(path.read_text())
    script = resume_script()[:20]
    for decl in program.decls:
        if not decl.is_generator:
            continue
        args = generator_args(decl)
        for form in [program, *forms_of(program).values()]:
            isolated = resume_sequence(form, decl.name, args, script)
            interp_ = Interpreter(form)
            factory = interp_.globals.lookup(decl.name)
            first = interp_.call(factory, list(args))
            second = interp_.call(factory, list(args))
            got_first = []
            got_second = []
            for value in script:
                got_first.append(resume_any(interp_, first, value))
                got_second.append(resume_any(interp_, second, value))
            assert got_first == isolated, decl.name
            assert got_second == isolated, decl.name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_eval_cfg_agrees_before_and_after_merging(path):
    program = parse_source(path.read_text())
    script = resume_script()
    for decl in program.decls:
        if not decl.is_generator:
            continue
        bindings = dict(zip(decl.params, generator_args(decl)))
        graph = build_cfg(decl)
        merged = merge_blocks(graph)
        unmerged_trace = eval_cfg(graph, bindings, script, program)
        merged_trace = eval_cfg(merged, bindings, script, program)
        assert unmerged_trace == merged_trace, decl.name
        native = resume_sequence(program, decl.name, generator_args(decl), script)
        assert unmerged_trace == native, decl.name
        # The optimized graph, which keeps yield-free statements whole.
        optimized = merge_blocks(build_cfg(decl, True))
        assert eval_cfg(optimized, bindings, script, program) == native, decl.name


@pytest.mark.parametrize("path", CORPUS_FILES, ids=corpus_ids())
def test_threaded_forms_agree(path, monkeypatch):
    # The checks above with threaded dispatch for every machine above
    # CHAIN_MAX states, and the first-order forms through their text.
    monkeypatch.setattr(transform, "SWITCH_MAX", CHAIN_MAX)
    test_program_outputs_agree(path)
    test_generator_traces_agree(path)
    test_lowered_text_reparses_and_reruns(path)
    test_two_instances_stay_independent(path)
    program = parse_source(path.read_text())
    reference = Interpreter(program).run()
    for name, form in forms_of(program).items():
        reparsed = parse_source(print_source(form))
        assert reparsed == form, name
        assert Interpreter(reparsed).run() == reference, name
