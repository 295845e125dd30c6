from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.transform import transform_program

from conftest import CORPUS_FILES, FIB_SOURCE
from randgen import random_program


def roundtrip(program):
    return parse_source(print_source(program))


def test_empty_main_exact_text():
    program = parse_source("fn main() { }")
    assert print_source(program) == "fn main() {\n}\n"


def test_generator_header_style():
    program = parse_source("fn* g(a, b) { yield a } fn main() { }")
    assert print_source(program).startswith("fn* g(a, b) {\n  yield a\n}\n")


def test_corpus_roundtrip():
    for path in CORPUS_FILES:
        program = parse_source(path.read_text())
        assert roundtrip(program) == program, path.name


def test_lowered_fib_roundtrip_and_single_dispatch_loop():
    program = parse_source(FIB_SOURCE)
    lowered = transform_program(program, True)
    text = print_source(lowered)
    assert text.count("while (true)") == 1
    assert roundtrip(lowered) == lowered


def test_parenthesization_preserves_structure():
    from corolower.syntax import Binary, IntLit, Program, FuncDecl, Block, Let

    right_nested = Binary("-", IntLit(1), Binary("-", IntLit(2), IntLit(3)))
    program = Program(
        [FuncDecl("main", [], False, Block([Let("x", right_nested)]))]
    )
    text = print_source(program)
    assert "1 - (2 - 3)" in text
    assert roundtrip(program) == program

    left_nested = Binary("-", Binary("-", IntLit(1), IntLit(2)), IntLit(3))
    program2 = Program(
        [FuncDecl("main", [], False, Block([Let("x", left_nested)]))]
    )
    assert "1 - 2 - 3" in print_source(program2)
    assert roundtrip(program2) == program2


SWITCH_SOURCE = """fn main() {
  switch (x % 3) case 0 {
    print(0)
  } case 2 {
  } else {
    switch (x) case 1 {
      return 1
    }
  }
}
"""


def test_switch_prints_each_later_case_on_the_closing_line():
    program = parse_source(SWITCH_SOURCE)
    assert print_source(program) == SWITCH_SOURCE
    assert roundtrip(program) == program


def test_left_leaning_chains_of_one_precedence_print_flat():
    # Printed in a loop; an operand of the same precedence on the right,
    # or of a lower one anywhere, keeps its parentheses.
    source = "fn main() {\n  let x = a - b + (c - d) * e - (f + g) - h\n}\n"
    program = parse_source(source)
    assert print_source(program) == source
    assert roundtrip(program) == program


def test_record_and_fieldset_rendering():
    source = "fn main() {\n  let r = { env: { i: 1 }, fn: &main }\n  r.env = null\n}\n"
    program = parse_source(source)
    assert print_source(program) == source


def test_random_programs_roundtrip():
    for seed in range(500):
        program = random_program(seed)
        assert roundtrip(program) == program, f"seed {seed}"
