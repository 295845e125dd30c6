"""The names the benchmark in `perfbench/` imports from corolower, checked
here because the benchmark's own tests are slow and run apart from this
suite: an API change that would break the benchmark fails here first.
Also the layering of the package: the CFG stage does not reach into the
interpreter, whose tables only the tests' CFG oracle runs a graph on."""

import ast
import importlib
from pathlib import Path

import pytest

import corolower
from corolower.cli import program_forms
from corolower.interp import Closure, GenInstance, Interpreter, Record, resume_any, resume_sequence
from corolower.parser import parse_source

from conftest import FIB_SOURCE

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def corolower_imports():
    """(module, name) for every `from corolower... import name` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("corolower"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


def module_imports(path):
    """Every module a source file of the corolower package imports,
    relative imports resolved against the package; `from m import n`
    counts m and m.n, so `from . import interp` counts too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = ("corolower." * (node.level > 0) + (node.module or "")).rstrip(".")
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def test_the_cfg_stage_imports_nothing_from_the_interpreter():
    imports = module_imports(ROOT / "src" / "corolower" / "cfg.py")
    assert "corolower.syntax" in imports
    assert "corolower.interp" not in imports
    assert "eval_cfg" not in corolower.__all__


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


def test_run_returns_the_printed_list_and_counts_steps():
    interp = Interpreter(parse_source(FIB_SOURCE), 10_000)
    output = interp.run()
    assert type(output) is list
    assert output == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert type(interp.steps) is int and interp.steps > 0


@pytest.mark.parametrize(
    "form, kind",
    [("native", GenInstance), ("lowered-opt", Closure), ("first-order", Record)],
)
def test_resume_any_resumes_the_instance_of_every_form(form, kind):
    interp = Interpreter(program_forms(parse_source(FIB_SOURCE))[form], 10_000)
    instance = interp.call(interp.globals.lookup("fib"), [])
    assert type(instance) is kind
    assert [resume_any(interp, instance, None) for _ in range(6)] == [0, 1, 1, 2, 3, 5]
