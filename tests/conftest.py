import copy
from pathlib import Path

import pytest

from corolower.errors import InterpError
from corolower.interp import Interpreter
from corolower.syntax import FuncLit, While, children, walk

TESTS_DIR = Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
GOLDEN_DIR = TESTS_DIR / "golden"

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.mini"))

FIB_SOURCE = (CORPUS_DIR / "fib.mini").read_text()
RECEIVE_SOURCE = (CORPUS_DIR / "receive.mini").read_text()


def outside_closures(root):
    """The nodes under root, root included, that no fn literal's body
    holds: a fn literal is listed, its body is not entered."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is not FuncLit:
            stack.extend(children(node))


def outcome(program, budget):
    """A run's printed values, its error as (kind, message, line, col) or
    None, and its steps."""
    it = Interpreter(program, budget)
    error = None
    try:
        it.run()
    except InterpError as err:
        error = (type(err), err.message, err.line, err.col)
    return it.output, error, it.steps


def without_tables(root):
    """A copy of root in which no loop carries a dispatch table
    (syntax.While), so that a dispatch loop runs every selection step by
    step through `_if` or `_switch`."""
    root = copy.deepcopy(root)
    for node in walk(root):
        if type(node) is While:
            node.dispatch = None
    return root


def wide_source(arms: int, nexts: int) -> str:
    """One generator of `arms` sequential if/else arms, each arm a yield,
    in an endless loop (3 * arms + 2 CFG blocks), printed `nexts` times
    by main."""
    arm_text = "".join(
        f"""    if ((i + {j}) % 2 == 0) {{
      yield i + {j}
    }} else {{
      yield i - {j}
    }}
"""
        for j in range(1, arms + 1)
    )
    return f"""fn* wide(i) {{
  while (true) {{
{arm_text}    i = i + 1
  }}
}}

fn main() {{
  let g = wide(0)
  let n = 0
  while (n < {nexts}) {{
    print(next(g))
    n = n + 1
  }}
}}
"""


@pytest.fixture(scope="session")
def corpus_programs():
    from corolower.parser import parse_source

    return {path.stem: parse_source(path.read_text()) for path in CORPUS_FILES}


def corpus_ids():
    return [path.stem for path in CORPUS_FILES]
