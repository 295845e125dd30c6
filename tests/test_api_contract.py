"""The names the benchmark in `perfbench/` imports from corolower, checked
here because the benchmark's own tests are slow and run apart from this
suite: an API change that would break the benchmark fails here first."""

import ast
import importlib
from pathlib import Path

from corolower.interp import resume_sequence
from corolower.parser import parse_source

from conftest import FIB_SOURCE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def corolower_imports():
    """(module, name) for every `from corolower... import name` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("corolower"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_every_name_the_benchmark_imports_resolves():
    imports = corolower_imports()
    names = {name for _, name in imports}
    assert {
        "Interpreter", "resume_any", "resume_sequence", "plan_generator", "program_forms",
        "diff_program", "DEFAULT_STEP_BUDGET", "lex", "parse", "parse_source", "build_cfg",
        "merge_blocks", "transform_program", "defunctionalize", "print_source",
    } <= names
    missing = sorted(
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def test_resume_sequence_returns_a_plain_list():
    program = parse_source(FIB_SOURCE)
    result = resume_sequence(program, "fib", [], [None] * 5, 10_000)
    assert type(result) is list
    assert result == [0, 1, 1, 2, 3]
