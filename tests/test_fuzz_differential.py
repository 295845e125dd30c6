"""Randomized differential check: seeded runnable generators traced
through every form and through the CFG executor. A wider sweep (2000+
seeds) runs clean; 200 keep the suite fast."""

import pytest

from corolower import transform
from corolower.cfg import build_cfg, eval_cfg, merge_blocks
from corolower.defunc import defunctionalize
from corolower.interp import resume_sequence
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.transform import CHAIN_MAX, transform_program

from genfuzz import random_generator_program

SEEDS = range(200)
SCRIPT = [None] + list(range(1, 30))


def check_forms_agree(seed):
    program, name, arity = random_generator_program(seed)
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


@pytest.mark.parametrize("seed", SEEDS)
def test_random_generator_agrees_across_forms(seed):
    program, name, args, native = check_forms_agree(seed)
    decl = program.decls[0]
    bindings = dict(zip(decl.params, args))
    graph = build_cfg(decl)
    assert eval_cfg(graph, bindings, SCRIPT, program) == native
    assert eval_cfg(merge_blocks(graph), bindings, SCRIPT, program) == native


@pytest.mark.parametrize("seed", SEEDS)
def test_random_generator_agrees_across_threaded_forms(seed, monkeypatch):
    # Threaded dispatch for every machine above CHAIN_MAX states; otherwise
    # no program here reaches it (the largest has 11 states).
    monkeypatch.setattr(transform, "BISECT_MAX", CHAIN_MAX)
    check_forms_agree(seed)
