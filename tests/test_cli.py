import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corolower import cli
from corolower.cli import diff_forms, main, program_forms
from corolower.defunc import defunctionalize
from corolower.errors import BudgetExceeded
from corolower.lexer import lex
from corolower.parser import parse_source
from corolower.printer import print_source
from corolower.transform import transform_program

from conftest import CORPUS_DIR, CORPUS_FILES, FIB_SOURCE, GOLDEN_DIR, wide_source

FIB_RUN = GOLDEN_DIR.joinpath("fib.run.txt").read_text()


@pytest.fixture()
def fib_path(tmp_path):
    path = tmp_path / "fib.mini"
    path.write_text(FIB_SOURCE)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_fib(capsys, fib_path):
    code, out, err = run_cli(capsys, "run", fib_path)
    assert code == 0
    assert out == FIB_RUN


def test_compile_lowered_golden(capsys, fib_path):
    code, out, _ = run_cli(capsys, "compile", fib_path)
    assert code == 0
    assert out == GOLDEN_DIR.joinpath("fib.lowered.mini").read_text()


def test_compile_noopt_golden(capsys, fib_path):
    code, out, _ = run_cli(capsys, "compile", fib_path, "--no-optimize")
    assert code == 0
    assert out == GOLDEN_DIR.joinpath("fib.lowered.noopt.mini").read_text()


def test_compile_first_order_golden(capsys, fib_path):
    code, out, _ = run_cli(capsys, "compile", fib_path, "--emit", "first-order")
    assert code == 0
    assert out == GOLDEN_DIR.joinpath("fib.firstorder.mini").read_text()
    assert "fib_fo" in out and "apply" in out


def test_compile_run_equals_run_of_source(capsys, tmp_path, fib_path):
    for emit in ("lowered", "first-order"):
        out_path = tmp_path / f"fib.{emit}.mini"
        code, _, _ = run_cli(
            capsys, "compile", fib_path, "--emit", emit, "-o", out_path
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "run", out_path)
        assert code == 0
        assert out == FIB_RUN


def test_missing_file_exit_1(capsys):
    code, out, err = run_cli(capsys, "run", "no-such-file.mini")
    assert code == 1
    assert "no-such-file.mini" in err


def test_compile_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.mini"
    path.write_text("fn f() { yield 1 } fn main() { }")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "yield outside a generator" in err


@pytest.mark.parametrize("command", ["run", "diff", "compile", "cfg"])
def test_switch_in_a_generator_exit_1(capsys, tmp_path, command):
    # The lowerings split only `if` and `while`, so validation refuses a
    # switch in a generator's body before any of them runs.
    path = tmp_path / "switch.mini"
    path.write_text("fn* g(x) {\n  switch (x) case 1 {\n    yield 1\n  }\n}\nfn main() { }\n")
    out_dir = ["--out-dir", tmp_path] if command == "cfg" else []
    code, out, err = run_cli(capsys, command, path, *out_dir)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: switch inside a generator (line 2, col 3)\n"


@pytest.mark.parametrize("command", ["run", "diff", "compile"])
def test_non_ascii_digit_exit_1(capsys, tmp_path, command):
    path = tmp_path / "digit.mini"
    path.write_text("fn main() { print(\u00b2) }\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: unexpected character '\u00b2' (line 1, col 19)\n"


@pytest.mark.parametrize("command", ["run", "compile", "cfg", "diff"])
def test_non_utf8_source_exit_1(capsys, tmp_path, command):
    path = tmp_path / "latin1.mini"
    # Latin-1 `é` at byte 29, after 23 bytes of code and `// caf`.
    path.write_bytes(b"fn main() { print(1) }\n// caf\xe9\n")
    out_dir = ["--out-dir", tmp_path] if command == "cfg" else []
    code, out, err = run_cli(capsys, command, path, *out_dir)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: not UTF-8: invalid continuation byte at byte 29\n"


def test_compile_to_a_missing_directory_exit_1(capsys, tmp_path, fib_path):
    target = tmp_path / "missing" / "fib.lowered.mini"
    code, out, err = run_cli(capsys, "compile", fib_path, "-o", target)
    assert code == 1
    assert out == ""
    assert err == f"error: {target}: cannot write: No such file or directory\n"


def test_cfg_out_dir_naming_a_file_exit_1(capsys, fib_path):
    code, out, err = run_cli(capsys, "cfg", fib_path, "--out-dir", fib_path)
    assert code == 1
    assert out == ""
    assert err == f"error: {fib_path}: cannot make directory: File exists\n"


def test_runtime_error_exit_2(capsys, tmp_path):
    path = tmp_path / "crash.mini"
    path.write_text("fn main() {\n  print(1 / 0)\n}")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "division by zero" in err and "line 2" in err


def test_budget_env_exit_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "spin.mini"
    path.write_text("fn main() { while (true) { } }")
    monkeypatch.setenv("COROLOWER_BUDGET", "5000")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "budget exceeded" in err



def test_a_long_binary_chain_ends_by_budget_or_by_the_stack(capsys, tmp_path, monkeypatch):
    # The interpreter recurses once per term of the chain. Past a budget
    # of 100 that overflow is the budget's; within the default budget it
    # is the stack's.
    path = tmp_path / "chain.mini"
    path.write_text("fn main() { let x = 1 print(" + " + ".join(["x"] * 1000) + ") }\n")
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: nesting or recursion too deep for the Python stack\n"
    monkeypatch.setenv("COROLOWER_BUDGET", "100")
    assert run_cli(capsys, "run", path) == (2, "", f"error: {path}: step budget exceeded\n")

def test_a_deeply_nested_record_prints(capsys, tmp_path):
    # `run` and `diff` render every printed value; a record 5,000 deep
    # renders without recursion. One that contains itself has no text, and
    # both end with a runtime error that says so.
    path = tmp_path / "deep.mini"
    path.write_text(
        "fn main() {\n  let r = {}\n  let i = 0\n  while (i < 5000) {\n"
        "    r = { n: r }\n    i = i + 1\n  }\n  print(r)\n}\n"
    )
    assert run_cli(capsys, "run", path) == (0, "{ n: " * 5000 + "{}" + " }" * 5000 + "\n", "")
    assert run_cli(capsys, "diff", path) == (0, "", f"{path}: OK\n")
    path.write_text("fn main() {\n  let r = { n: null }\n  r.n = r\n  print(r)\n}\n")
    message = f"error: {path}: cannot render a record that contains itself\n"
    assert run_cli(capsys, "run", path) == (2, "", message)


@pytest.mark.parametrize(
    "last, budget, error",
    [
        ("print(1 / 0)", None, "division by zero (line 5, col 11)"),
        ("while (true) { }", "5000", "step budget exceeded"),
    ],
)
def test_run_writes_output_printed_before_the_error(
    capsys, tmp_path, monkeypatch, last, budget, error
):
    path = tmp_path / "partial.mini"
    path.write_text(f"fn main() {{\n  print(3)\n  print(5)\n  print(10)\n  {last}\n}}\n")
    if budget is not None:
        monkeypatch.setenv("COROLOWER_BUDGET", budget)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert out == "3\n5\n10\n"
    assert err.startswith("error: ") and err.rstrip().endswith(error)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_env_below_one_exit_1(capsys, monkeypatch, fib_path, budget):
    monkeypatch.setenv("COROLOWER_BUDGET", budget)
    for command in ("run", "diff"):
        code, out, err = run_cli(capsys, command, fib_path)
        assert code == 1, command
        assert out == ""
        assert err.startswith("error: ") and "COROLOWER_BUDGET" in err


@pytest.mark.parametrize("resumptions", ["0", "-3"])
def test_diff_budget_below_one_exit_1(capsys, fib_path, resumptions):
    code, out, err = run_cli(capsys, "diff", "--budget", resumptions, fib_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--budget" in err and "OK" not in err


def test_diff_budget_above_the_step_budget_exit_1(capsys, monkeypatch):
    # Each lowered resumption costs a step, so a trace longer than the step
    # budget cannot finish; such a --budget is refused before anything runs.
    monkeypatch.setenv("COROLOWER_BUDGET", "1000")
    fib = CORPUS_DIR / "fib.mini"
    code, out, err = run_cli(capsys, "diff", "--budget", 10**12, fib)
    assert code == 1
    assert out == ""
    assert err == "error: --budget must be 1 to the step budget 1000, got 1000000000000\n"
    # A --budget equal to the step budget runs, here into that budget.
    monkeypatch.setenv("COROLOWER_BUDGET", "20")
    code, _, err = run_cli(capsys, "diff", "--budget", 20, fib)
    assert code == 2 and err.rstrip().endswith("step budget exceeded")


def test_diff_all_with_input_files_exit_1(capsys, fib_path):
    code, out, err = run_cli(capsys, "diff", "--all", CORPUS_DIR, fib_path, "/nonexistent.mini")
    assert code == 1
    assert out == ""
    assert err == "error: diff takes input files or --all DIR, not both\n"


@pytest.mark.parametrize(
    "argv",
    [[], ["run"], ["diff", "--budget", "x", "FIB"], ["frobnicate"]],
    ids=["bare", "run-without-input", "diff-budget-not-int", "unknown-command"],
)
def test_usage_error_exit_1(capsys, fib_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([str(fib_path) if a == "FIB" else a for a in argv])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: corolower")
    assert "error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["diff", "--help"]])
def test_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert "usage: corolower" in capsys.readouterr().out


def test_cfg_golden_files(capsys, tmp_path, fib_path):
    code, _, err = run_cli(capsys, "cfg", fib_path, "--out-dir", tmp_path)
    assert code == 0
    dot = (tmp_path / "fib.dot").read_text()
    assert dot == GOLDEN_DIR.joinpath("fib.cfg.dot").read_text()
    code, _, _ = run_cli(
        capsys, "cfg", fib_path, "--no-optimize", "--out-dir", tmp_path / "noopt"
    )
    assert code == 0
    noopt = (tmp_path / "noopt" / "fib.dot").read_text()
    assert noopt == GOLDEN_DIR.joinpath("fib.cfg.noopt.dot").read_text()
    assert noopt.count("shape=box") + noopt.count("shape=circle") == 4
    assert '"yes"' in noopt and '"no"' in noopt


def test_cfg_optimize_draws_the_graph_the_lowering_uses(capsys, tmp_path):
    # tally's null test holds no yield, so one box holds it whole, and the
    # unoptimized graph splits it into a branch and two arms.
    path = CORPUS_DIR / "tally.mini"
    assert run_cli(capsys, "cfg", path, "--out-dir", tmp_path)[0] == 0
    dot = (tmp_path / "tally.dot").read_text()
    assert (
        '  bb3 [shape=box, xlabel="bb3", label="if (add == null) {\\l  total = total\\l'
        '} else {\\l  total = total + add\\l}\\l"];\n'
    ) in dot
    assert dot.count("shape=box") == 3 and "shape=circle" not in dot
    assert run_cli(capsys, "cfg", path, "--no-optimize", "--out-dir", tmp_path / "noopt")[0] == 0
    noopt = (tmp_path / "noopt" / "tally.dot").read_text()
    assert "if (" not in noopt and 'label="add == null"' in noopt


def test_run_of_a_record_that_holds_itself_exit_2(capsys, tmp_path):
    # The output has no rendering: an error line that says why, no traceback.
    path = tmp_path / "cycle.mini"
    path.write_text("fn main() { let r = { a: 1 } r.a = r print(r) }\n")
    for command in ("run", "diff"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2, command
        assert out == ""
        assert err == f"error: {path}: cannot render a record that contains itself\n"


@pytest.mark.parametrize(
    "stmt, error",
    [
        ("print(r + 1)", "expected an integer, got a record that contains itself (line 1, col 49)"),
        ("if (r) { }", "expected a boolean, got a record that contains itself (line 1, col 45)"),
        ("r(1)", "value a record that contains itself is not callable (line 1, col 42)"),
        ("next(r)", "next on non-resumable value a record that contains itself (line 1, col 41)"),
    ],
)
def test_an_error_names_a_record_that_holds_itself(capsys, tmp_path, stmt, error):
    # A message that shows a value keeps its own words and position when
    # the value has no rendering.
    path = tmp_path / "cycle.mini"
    path.write_text(f"fn main() {{ let r = {{ n: null }} r.n = r {stmt} }}\n")
    for command in ("run", "diff"):
        assert run_cli(capsys, command, path) == (2, "", f"error: {path}: {error}\n"), command


def nested_ifs_source(depth, yields, arm=False):
    """A generator of `yields` leading yields, then `depth` nested `if`s
    without a yield, inside the parser's limit up to depth 147; with
    `arm`, they and the yield after them are the else arm of an `if`
    whose then arm yields, and the limit is 146."""
    leading = "".join(f"  yield {k}\n" for k in range(yields))
    opens = "".join(f"if (x < {k}) {{\n" for k in range(depth))
    body = f"{opens}x = x + 1\n{'}' * depth}\n  yield x"
    if arm:
        body = f"if (x < 0) {{\n  yield 0\n}} else {{\n{body}\n}}"
    return (
        f"fn* g(x) {{\n{leading}{body}\n}}\n\n"
        "fn main() {\n  let a = g(0)\n  print(next(a))\n}\n"
    )


@pytest.mark.parametrize(
    "yields, arm",
    [(0, False), (3, False), (30, False), (80, False), (63, True), (3, True), (2, True)],
)
def test_nested_statements_up_to_the_limit_compile(capsys, tmp_path, yields, arm):
    # A yield-free statement stays whole only where the lowering's own
    # levels leave room for it, so every depth the parser takes compiles
    # and reads back in both forms, chained (0 yields) or switched (3, 30
    # and 80), as `compile` checks it. With the nest in a branch arm and
    # whole (depth 120), 63 yields make 64 optimized states and 3 make
    # four, each switched; 2 make three, the longest chain the optimized
    # lowering keeps, so the nest is in the last state's arm and sits as
    # deep as the lowering puts any statement.
    assert sys.getrecursionlimit() <= 1000
    deepest = 146 if arm else 147
    for depth in range(120, deepest + 1):
        lowered = transform_program(parse_source(nested_ifs_source(depth, yields, arm)))
        for form in (lowered, defunctionalize(lowered)):
            text = print_source(form)
            assert print_source(parse_source(text)) == text, depth
    path = tmp_path / "nested.mini"
    path.write_text(nested_ifs_source(deepest, yields, arm))
    for emit in ("lowered", "first-order"):
        assert run_cli(capsys, "compile", path, "--emit", emit)[::2] == (0, ""), emit
    assert run_cli(capsys, "diff", path)[0] == 0


def test_cfg_without_generators_warns(capsys, tmp_path):
    path = tmp_path / "plain.mini"
    path.write_text("fn main() { }")
    code, _, err = run_cli(capsys, "cfg", path)
    assert code == 0
    assert "no generators" in err


def test_diff_self_check(capsys, fib_path):
    code, _, err = run_cli(capsys, "diff", fib_path)
    assert code == 0
    assert "OK" in err


def test_diff_detects_corruption(capsys, tmp_path, fib_path):
    lowered = tmp_path / "fib.lowered.mini"
    code, _, _ = run_cli(capsys, "compile", fib_path, "-o", lowered)
    assert code == 0
    corrupted = lowered.read_text().replace("b = c + a", "b = c + a + 1")
    assert corrupted != lowered.read_text()
    bad = tmp_path / "fib.bad.mini"
    bad.write_text(corrupted)
    code, _, err = run_cli(capsys, "diff", fib_path, bad)
    assert code == 3
    assert "DIVERGED" in err and "expected" in err and "got" in err


def test_diff_names_the_failing_resumption(capsys, tmp_path):
    path = tmp_path / "crash.mini"
    path.write_text("fn* g() { yield 1 yield 1 / 0 } fn main() { }")
    code, out, err = run_cli(capsys, "diff", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: resumption 1: division by zero (line 1, col 27)\n"


def corrupted_fib_forms():
    """fib's forms with the lowered-opt machine adding one to b."""
    forms = program_forms(parse_source(FIB_SOURCE))
    text = print_source(forms["lowered-opt"])
    corrupted = text.replace("b = c + a", "b = c + a + 1")
    assert corrupted != text
    forms["lowered-opt"] = parse_source(corrupted)
    return forms


CORRUPTED_FIB_REPORT = [
    "lowered-opt: output line 2: expected 1, got 2",
    "lowered-opt: generator fib: resumption 2: expected 1, got 2",
]


def test_diff_forms_reports_the_first_divergence_of_output_and_trace():
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT


def test_diff_forms_passes_a_value_to_the_first_next():
    # The language discards a first `next`'s value, so a form whose first
    # resumption binds it diverges. This lowered-opt tally enters its
    # receiver state 3 at once, where `_i = 2` was, and adds that value.
    forms = program_forms(parse_source((CORPUS_DIR / "tally.mini").read_text()))
    text = print_source(forms["lowered-opt"])
    mutant = text.replace("total = start\n        _i = 2", "total = start\n        _i = 3")
    assert mutant != text
    forms["lowered-opt"] = parse_source(mutant)
    assert diff_forms(forms, 100, 10_000_000) == [
        "lowered-opt: generator tally: resumption 0: expected 1, got 0"
    ]


def test_diff_prints_each_divergence_indented_and_exits_3(capsys, monkeypatch, fib_path):
    forms = corrupted_fib_forms()
    monkeypatch.setattr(cli, "program_forms", lambda program: forms)
    code, out, err = run_cli(capsys, "diff", fib_path)
    assert code == 3
    assert out == ""
    assert err == "".join(
        [f"{fib_path}: DIVERGED\n"] + [f"  {line}\n" for line in CORRUPTED_FIB_REPORT]
    )


RECORDS_SOURCE = (
    "fn* g() { yield { a: 1, b: { c: null } } yield {} }\n"
    "fn main() { let r = { b: 2 } print(r) }\n"
)


def test_diff_compares_records_by_what_print_shows(capsys, tmp_path):
    # Each form runs in an interpreter of its own, so the records it
    # prints and yields are never the native run's records.
    path = tmp_path / "records.mini"
    path.write_text(RECORDS_SOURCE)
    code, out, err = run_cli(capsys, "diff", path)
    assert (code, out, err) == (0, "", f"{path}: OK\n")


def test_a_record_that_prints_differently_diverges(capsys, monkeypatch, tmp_path):
    forms = program_forms(parse_source(RECORDS_SOURCE))
    forms["first-order"] = parse_source(
        RECORDS_SOURCE.replace("{ c: null }", "{ c: 0 }").replace("{ b: 2 }", "{ b: 3 }")
    )
    monkeypatch.setattr(cli, "program_forms", lambda program: forms)
    path = tmp_path / "records.mini"
    path.write_text(RECORDS_SOURCE)
    code, out, err = run_cli(capsys, "diff", path)
    assert (code, out) == (3, "")
    assert err == (
        f"{path}: DIVERGED\n"
        "  first-order: output line 0: expected { b: 2 }, got { b: 3 }\n"
        "  first-order: generator g: resumption 0: "
        "expected { a: 1, b: { c: null } }, got { a: 1, b: { c: 0 } }\n"
    )


def cpus(monkeypatch, count):
    """Make `count` CPUs usable, so that diff deals its forms to
    min(count, 4) processes on any machine. Pinning a process to CPUs is
    recorded instead of done; returns the record of this process."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)), raising=False
    )
    return pins


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FAILING_FORMS = {
    "fine": "fn* g() { yield 1 } fn main() { print(1) }",
    "output": "fn* g() { yield 1 } fn main() { print(1 / 0) }",
    "output too": "fn* g() { yield 1 } fn main() { print(1 % 0) }",
    "trace": "fn* g() { yield 2 / 0 } fn main() { print(1) }",
}


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize(
    "failing, message",
    [
        # Forms in form order, whichever process runs them.
        (("output", "output too", "fine"), "division by zero (line 1, col 41)"),
        # Every output before any trace.
        (("trace", "output too", "output"), "modulo by zero (line 1, col 41)"),
        # On 2 CPUs a child runs lowered-opt and lowered-noopt, and its
        # error comes before that of first-order, which this process runs.
        (("fine", "output", "output too"), "division by zero (line 1, col 41)"),
    ],
    ids=["form-order", "outputs-first", "child-first"],
)
def test_diff_raises_the_error_a_serial_run_reaches_first(
    capsys, monkeypatch, tmp_path, count, failing, message
):
    cpus(monkeypatch, count)
    forms = {"native": parse_source(FAILING_FORMS["fine"])}
    for form, kind in zip(("lowered-opt", "lowered-noopt", "first-order"), failing):
        forms[form] = parse_source(FAILING_FORMS[kind])
    monkeypatch.setattr(cli, "program_forms", lambda program: forms)
    path = tmp_path / "fine.mini"
    path.write_text(FAILING_FORMS["fine"])
    code, out, err = run_cli(capsys, "diff", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 4])
def test_diff_forms_leaves_no_child(monkeypatch, count):
    # Nor a pin: this process runs on the first CPU while its children
    # run, and on every usable CPU again once they are reaped.
    pins = cpus(monkeypatch, count)
    assert diff_forms(program_forms(parse_source(FIB_SOURCE)), 100, 10_000_000) == []
    assert_no_child_left()
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT
    assert_no_child_left()
    with pytest.raises(BudgetExceeded):
        diff_forms(corrupted_fib_forms(), 100, 50)
    assert_no_child_left()
    assert pins == ([{0}, set(range(count))] * 3 if count > 1 else [])


@pytest.mark.parametrize(
    "count, split",
    [
        (2, {None: ["native", "first-order"], 1: ["lowered-opt", "lowered-noopt"]}),
        (4, {None: ["first-order"], 1: ["lowered-opt"], 2: ["lowered-noopt"], 3: ["native"]}),
    ],
    ids=["2-cpus", "4-cpus"],
)
def test_diff_forms_splits_the_forms_by_cost_in_form_order(monkeypatch, count, split):
    # {CPU a child is pinned to, or None for this process: its share}
    calls = {}
    run_share = cli._run_share

    def record(forms, share, traces, script, step_budget, cpu=None):
        calls[cpu] = list(share)
        return run_share(forms, share, traces, script, step_budget, cpu)

    cpus(monkeypatch, count)
    monkeypatch.setattr(cli, "_run_share", record)
    forms = program_forms(parse_source(FIB_SOURCE))
    assert diff_forms(forms, 100, 10_000_000) == []
    assert calls == split
    for share in calls.values():
        assert share == [form for form in forms if form in share]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_diff_forms_gives_back_the_cpus_it_pinned():
    usable = os.sched_getaffinity(0)
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT
    assert os.sched_getaffinity(0) == usable
    assert_no_child_left()


def test_diff_forms_runs_every_share_itself_on_one_cpu(monkeypatch):
    def fork():
        raise AssertionError("forked on one CPU")

    cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", fork)
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT


def test_diff_forms_reruns_the_share_of_a_child_without_results(monkeypatch):
    # A child that cannot pickle its results exits without them, and the
    # parent runs that child's forms itself; so does a fork that fails.
    def no_pickle(results, pipe):
        raise RuntimeError("cannot pickle")

    cpus(monkeypatch, 4)
    monkeypatch.setattr(cli.pickle, "dump", no_pickle)
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT
    assert_no_child_left()

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert diff_forms(corrupted_fib_forms(), 100, 10_000_000) == CORRUPTED_FIB_REPORT


def test_diff_of_several_files_reports_each_before_a_later_failure(capsys, tmp_path, fib_path):
    lowered = tmp_path / "fib.lowered.mini"
    assert run_cli(capsys, "compile", fib_path, "-o", lowered)[0] == 0
    bad = tmp_path / "fib.bad.mini"
    bad.write_text(lowered.read_text().replace("b = c + a", "b = c + a + 1"))
    short = tmp_path / "short.mini"
    short.write_text("fn main() { print(0) print(1) }")
    crash = tmp_path / "crash.mini"
    crash.write_text("fn main() { print(1 / 0) }")
    code, out, err = run_cli(capsys, "diff", fib_path, lowered, bad, short, crash)
    assert code == 2
    assert out == ""
    assert err == (
        f"{lowered}: OK (matches {fib_path})\n"
        f"{bad}: DIVERGED at output line 2: expected 1, got 2\n"
        f"{short}: DIVERGED at output line 2: expected 1, got <missing>\n"
        f"error: {crash}: division by zero (line 1, col 21)\n"
    )


def test_diff_all_corpus(capsys):
    code, _, err = run_cli(capsys, "diff", "--all", CORPUS_DIR)
    assert code == 0
    summary = [line for line in err.splitlines() if line.endswith(": OK")]
    assert len(summary) >= 12


def test_exit_codes_are_exactly_documented_set():
    from corolower import cli

    assert (cli.EXIT_OK, cli.EXIT_COMPILE, cli.EXIT_RUNTIME, cli.EXIT_DIVERGENCE) == (
        0,
        1,
        2,
        3,
    )


def test_too_deep_to_compile_exit_1(capsys, tmp_path):
    depth = 1200
    nested_ifs = tmp_path / "nested_ifs.mini"
    nested_ifs.write_text(
        "fn main() {\n" + "if (true) {\n" * depth + "print(1)\n" + "}\n" * depth + "}\n"
    )
    parens = tmp_path / "parens.mini"
    parens.write_text("fn main() { print(" + "(" * 3000 + "1" + ")" * 3000 + ") }\n")
    for argv in (("run", nested_ifs), ("compile", parens), ("diff", nested_ifs)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and "too deep" in err


@pytest.mark.parametrize("command", ["run", "compile", "diff", "cfg"])
def test_nesting_limit_exit_1(capsys, tmp_path, command):
    # The parser's nesting limit, not Python's stack, rejects the input,
    # so the message names the position.
    path = tmp_path / "parens.mini"
    path.write_text("fn main() { print(" + "(" * 3000 + "1" + ")" * 3000 + ") }\n")
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: nesting too deep (more than 150 levels) (line 1, col 168)\n"


def test_compile_refuses_output_that_nests_too_deeply(capsys, tmp_path):
    # Inside the nesting limit as source and as first-order output, but
    # the lowered form adds a factory, machine, loop and dispatch arm.
    path = tmp_path / "deep.mini"
    path.write_text("fn* g() { yield " + "-" * 146 + "1 }\nfn main() { print(next(g())) }\n")
    assert run_cli(capsys, "run", path)[:2] == (0, "1\n")
    first_order = tmp_path / "deep.fo.mini"
    assert run_cli(capsys, "compile", path, "--emit", "first-order", "-o", first_order)[0] == 0
    assert run_cli(capsys, "run", first_order)[:2] == (0, "1\n")
    lowered = tmp_path / "deep.lowered.mini"
    code, out, err = run_cli(capsys, "compile", path, "-o", lowered)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {path}: compiled output: nesting too deep (more than 150 levels) "
        "(line 7, col 161)\n"
    )
    assert not lowered.exists()


def test_a_long_binary_chain_compiles_as_it_runs(capsys, tmp_path):
    # The parser reads `x + x + ... + x` in a loop and the printer writes
    # it in one, so `compile` accepts the 500 terms that `run` and `diff`
    # take, and its output reads back as the same program.
    path = tmp_path / "chain.mini"
    path.write_text("fn main() { let x = 1 print(" + " + ".join(["x"] * 500) + ") }\n")
    assert run_cli(capsys, "run", path)[:2] == (0, "500\n")
    assert run_cli(capsys, "diff", path)[0] == 0
    for emit in ("lowered", "first-order"):
        out = tmp_path / f"chain.{emit}.mini"
        assert run_cli(capsys, "compile", path, "--emit", emit, "-o", out)[::2] == (0, ""), emit
        assert run_cli(capsys, "run", out)[:2] == (0, "500\n"), emit


def test_diff_of_a_factory_whose_machine_shadows_a_local_exit_1(capsys, tmp_path):
    # Hand-written in the lowered shape; its machine's own `a` is no field
    # of the environment, so defunctionalize refuses it instead of reading
    # the factory's `a`.
    path = tmp_path / "shadow.mini"
    path.write_text(
        "fn f() {\n  let _i = 1\n  let a = null\n  return fn (_r) {\n"
        "    let a = 5\n    return a\n  }\n}\n\nfn main() {\n  print(next(f()))\n}\n"
    )
    code, out, err = run_cli(capsys, "diff", path)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {path}: 'f': machine body declares 'a', which shadows a variable "
        "of the factory (line 5, col 5)\n"
    )


def test_too_deep_to_run_exit_2(capsys, tmp_path):
    path = tmp_path / "runaway.mini"
    path.write_text("fn f(n) { return f(n + 1) }\nfn main() { print(f(0)) }\n")
    for command in ("run", "diff"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and "too deep" in err


def test_compile_first_order_of_two_hundred_arms(capsys, tmp_path):
    path = tmp_path / "wide200.mini"
    path.write_text(wide_source(200, 1))
    code, out, err = run_cli(capsys, "compile", path, "--emit", "first-order")
    assert code == 0, err
    assert "fn wide_fo(" in out


def test_python_dash_m(fib_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "corolower", "run", str(fib_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == FIB_RUN


def mutants(seed, count):
    """`count` corpus programs, each with one to three tokens deleted or
    inserted (a token of the same program) at random places."""
    rng = random.Random(seed)
    programs = [[t.text for t in lex(p.read_text()) if t.kind != "eof"] for p in CORPUS_FILES]
    for _ in range(count):
        tokens = list(rng.choice(programs))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(tokens))
            if rng.random() < 0.5:
                del tokens[at]
            else:
                tokens.insert(at, rng.choice(tokens))
        yield " ".join(tokens)


def test_mutated_programs_end_in_an_exit_code(capsys, tmp_path, monkeypatch):
    # No input surfaces a Python traceback: each command on each mutant
    # returns a documented exit code or exits through argparse.
    monkeypatch.setenv("COROLOWER_BUDGET", "20000")
    path = tmp_path / "mutant.mini"
    commands = (["run"], ["diff", "--budget", "20"], ["compile", "--emit", "first-order"])
    codes = set()
    for source in mutants(2026, 300):
        path.write_text(source)
        for command in commands:
            try:
                codes.add(main(command + [str(path)]))
            except SystemExit as exit_info:
                codes.add(exit_info.code)
            except Exception as err:
                pytest.fail(f"{command} on {source!r} raised {err!r}")
    capsys.readouterr()
    assert codes <= {0, 1, 2, 3}
    assert {0, 1} <= codes  # the sweep reaches both the parser and the interpreter
