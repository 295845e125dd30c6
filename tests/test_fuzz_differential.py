"""Randomized differential check: seeded runnable generators traced
through every form and through the CFG executor. A wider sweep (2000+
seeds) runs clean; 200 keep the suite fast. A second sweep draws the
same seeds without yields in `if` arms, so that the optimized CFG keeps
more `if` statements whole. A third runs generators whose closure reads
their locals after they move on, in every form but the first-order one,
which rejects closures. A fourth traces some of the lowered machines past
their finish with and without the dispatch tables of their chains and
switches."""

import pytest

from corolower import transform
from corolower.cfg import build_cfg, merge_blocks
from corolower.defunc import defunctionalize
from corolower.errors import InterpError
from corolower.interp import (
    Interpreter,
    interp_native,
    render_output,
    resume_sequence,
    trace_instance,
)
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.syntax import If, While
from corolower.transform import CHAIN_MAX, plan_generator, transform_program

from cfg_oracle import eval_cfg
from conftest import without_tables
from genfuzz import closure_generator_program, random_generator_program

SEEDS = range(200)
SCRIPT = [None] + list(range(1, 30))


def check_forms_agree(seed, arm_yields=True):
    program, name, arity = random_generator_program(seed, arm_yields)
    args = list(range(1, arity + 1))
    reference = resume_sequence(program, name, args, SCRIPT)
    lowered_opt = transform_program(program, True)
    lowered_noopt = transform_program(program, False)
    forms = {
        "lowered-opt": lowered_opt,
        "lowered-noopt": lowered_noopt,
        "first-order-opt": defunctionalize(lowered_opt),
        "first-order-noopt": defunctionalize(lowered_noopt),
    }
    for form_name, form in forms.items():
        assert resume_sequence(form, name, args, SCRIPT) == reference, form_name
        assert parse_source(print_source(form)) == form, form_name
    return program, name, args, reference


def check_eval_cfg_agrees(program, name, args, native):
    decl = program.decls[0]
    bindings = dict(zip(decl.params, args))
    for graph in (build_cfg(decl), build_cfg(decl, True)):
        assert eval_cfg(graph, bindings, SCRIPT, program) == native
        assert eval_cfg(merge_blocks(graph), bindings, SCRIPT, program) == native


@pytest.mark.parametrize("seed", SEEDS)
def test_random_generator_agrees_across_forms(seed):
    check_eval_cfg_agrees(*check_forms_agree(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_generator_agrees_across_threaded_forms(seed, monkeypatch):
    # Named for the threaded dispatch it used to force: a switch for every
    # machine, the chain's sizes included.
    monkeypatch.setattr(transform, "CHAIN_MAX", 0)
    check_forms_agree(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_generator_with_joins_agrees_across_forms(seed, monkeypatch):
    check_eval_cfg_agrees(*check_forms_agree(seed, arm_yields=False))
    monkeypatch.setattr(transform, "CHAIN_MAX", 0)
    check_forms_agree(seed, arm_yields=False)


def test_closures_read_the_same_locals_in_every_lowered_form():
    diverging = []
    for seed in range(300):
        program = closure_generator_program(seed)
        native = render_output(interp_native(program))
        for opt in (True, False):
            if render_output(interp_native(transform_program(program, opt))) != native:
                diverging.append((seed, opt))
    assert diverging == []


def test_the_sweeps_keep_statements_whole():
    # Generators whose optimized CFG keeps an `if` or `while` whole as a
    # statement of a block, and how many of each it keeps, per sweep.
    kept = {}
    for arm_yields in (True, False):
        generators = ifs = whiles = 0
        for seed in SEEDS:
            program, _, _ = random_generator_program(seed, arm_yields)
            graph, _ = plan_generator(program.decls[0])
            whole = [s for b in graph.blocks.values() for s in b.stmts if isinstance(s, (If, While))]
            generators += bool(whole)
            ifs += sum(isinstance(s, If) for s in whole)
            whiles += sum(isinstance(s, While) for s in whole)
        kept[arm_yields] = (generators, ifs, whiles)
    assert kept == {True: (16, 3, 13), False: (83, 98, 10)}


def traced(program, name, args, budget):
    """The results of resume_sequence's trace over SCRIPT, its error and
    the steps it spent."""
    it = Interpreter(program, budget)
    results, error = None, None
    try:
        results = trace_instance(it, it.call(it.globals.lookup(name), args), SCRIPT)
    except InterpError as err:
        error = (type(err), err.message, err.line, err.col)
    return results, error, it.steps


def test_the_dispatch_lookup_keeps_fuzz_traces_exact():
    # Each machine runs to its finish and then keeps selecting the sink 0.
    # Budgets sampled across each trace land at every depth of the
    # dispatch, and outcomes must not depend on whether the dispatch loop
    # takes the arm or case from the table of its chain or switch or a
    # copy without tables runs the selection step by step. A machine of
    # more than CHAIN_MAX states, or optimized of CHAIN_MAX, dispatches
    # through a switch and any other through a chain.
    switched = 0
    for seed in range(0, 200, 5):
        for arm_yields in (True, False):
            program, name, arity = random_generator_program(seed, arm_yields)
            args = list(range(1, arity + 1))
            for opt in (True, False):
                states = len(plan_generator(program.decls[0], opt)[1].states)
                switched += states >= CHAIN_MAX if opt else states > CHAIN_MAX
                lowered = transform_program(program, opt)
                for form in (lowered, defunctionalize(lowered)):
                    full = traced(form, name, args, 10**6)
                    assert full[0][-1] is None and full[1] is None
                    budgets = [*range(1, full[2], 1 + full[2] // 12), full[2]]
                    with_tables = [traced(form, name, args, b) for b in budgets]
                    plain = without_tables(form)
                    without = [traced(plain, name, args, b) for b in budgets]
                    assert with_tables == without, (seed, arm_yields, opt)
                    assert with_tables[-1] == full
    assert switched == 27  # machines of 4 (optimized) to 15 states
