"""Command line driver.

    corolower compile fib.mini --emit lowered -o fib.lowered.mini
    corolower run fib.mini
    corolower cfg fib.mini --no-optimize
    corolower diff fib.mini
    corolower diff --all tests/corpus

Exit codes: 0 success, 1 compile or usage error, 2 runtime error,
3 divergence.
Input nested or recursing too deeply for Python's stack fails the same
way: code 1 while compiling, 2 while running. Diagnostics go to stderr,
program output to stdout; `run` writes the output printed before a
runtime error too. COROLOWER_BUDGET overrides the evaluation step budget
(default 10^7 steps); it and `diff --budget` must be at least 1, and
`--budget` at most it. `diff` takes input files or `--all DIR`, not both.

`diff` compares values by what `print` shows for them. It runs the
forms in up to one process per usable CPU, each pinned to its own CPU,
and its report, messages and exit codes are those of a serial run.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

from .defunc import defunctionalize
from .errors import MiniError
from .interp import (
    DEFAULT_STEP_BUDGET,
    Interpreter,
    NULL,
    render_output,
    resume_sequence,
)
from .parser import parse_source
from .printer import print_source
from .syntax import Program
from .transform import transform_program
from . import cfg as cfg_mod

EXIT_OK = 0
EXIT_COMPILE = 1
EXIT_RUNTIME = 2
EXIT_DIVERGENCE = 3

BUDGET_ENV = "COROLOWER_BUDGET"
DEFAULT_RESUMPTIONS = 100


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error instead of argparse's 2, which is the
    runtime-error code here. Subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_COMPILE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="corolower",
        description="Lower generator coroutines to closure state machines.",
    )
    sub = parser.add_subparsers(required=True)

    p_compile = sub.add_parser("compile", help="lower a program and print it")
    p_compile.add_argument("input")
    p_compile.add_argument(
        "--emit", choices=["lowered", "first-order"], default="lowered"
    )
    p_compile.add_argument(
        "--optimize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "keep if/while without a yield or return whole, merge CFG "
            "blocks and run single-predecessor branch arms in place when "
            "lowering (default on)"
        ),
    )
    p_compile.add_argument("-o", "--output", help="output path (default stdout)")
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="interpret a program")
    p_run.add_argument("input")
    p_run.set_defaults(func=cmd_run)

    p_cfg = sub.add_parser("cfg", help="write each generator's CFG as DOT")
    p_cfg.add_argument("input")
    p_cfg.add_argument(
        "--optimize", action=argparse.BooleanOptionalAction, default=True
    )
    p_cfg.add_argument("--out-dir", default=".")
    p_cfg.set_defaults(func=cmd_cfg)

    p_diff = sub.add_parser(
        "diff", help="check native/lowered/first-order agreement"
    )
    p_diff.add_argument("inputs", nargs="*")
    p_diff.add_argument("--all", dest="all_dir", help="check every .mini file in a directory")
    p_diff.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_RESUMPTIONS,
        help="resumptions per generator trace (default 100)",
    )
    p_diff.set_defaults(func=cmd_diff)
    return parser


@contextmanager
def _stage(code: int, path: str):
    """Fail with `code`, the exit code of the stage the block belongs to,
    on a diagnostic or when deep input exhausts Python's stack."""
    try:
        yield
    except MiniError as err:
        raise _Failure(code, f"{path}: {err}") from None
    except RecursionError:
        raise _Failure(
            code, f"{path}: nesting or recursion too deep for the Python stack"
        ) from None


def _step_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_STEP_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise _Failure(EXIT_COMPILE, f"{BUDGET_ENV} is not an integer: {raw!r}")
    if budget < 1:
        raise _Failure(EXIT_COMPILE, f"{BUDGET_ENV} must be at least 1, got {budget}")
    return budget


def _load(path: str) -> Program:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _Failure(EXIT_COMPILE, f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise _Failure(
            EXIT_COMPILE, f"{path}: not UTF-8: {err.reason} at byte {err.start}"
        ) from None
    with _stage(EXIT_COMPILE, path):
        return parse_source(source)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise _Failure(EXIT_COMPILE, f"{path}: cannot write: {err.strerror}") from None


def cmd_compile(args) -> int:
    program = _load(args.input)
    with _stage(EXIT_COMPILE, args.input):
        lowered = transform_program(program, args.optimize)
        if args.emit == "first-order":
            lowered = defunctionalize(lowered)
        text = print_source(lowered)
        # Lowering nests deeper than its input, so a source inside the
        # parser's nesting limit can compile to a program outside it.
        try:
            parse_source(text)
        except MiniError as err:
            raise _Failure(EXIT_COMPILE, f"{args.input}: compiled output: {err}") from None
    if args.output:
        _write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    program = _load(args.input)
    interpreter = Interpreter(program, _step_budget())
    with _stage(EXIT_RUNTIME, args.input):
        try:
            interpreter.run()
        finally:
            # What was printed before a runtime error is output too.
            sys.stdout.write(render_output(interpreter.output))
    return EXIT_OK


def cmd_cfg(args) -> int:
    program = _load(args.input)
    generators = [d for d in program.decls if d.is_generator]
    if not generators:
        print("warning: no generators in program", file=sys.stderr)
        return EXIT_OK
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _Failure(
            EXIT_COMPILE, f"{out_dir}: cannot make directory: {err.strerror}"
        ) from None
    for decl in generators:
        with _stage(EXIT_COMPILE, args.input):
            graph = cfg_mod.build_cfg(decl, args.optimize)  # what the lowering uses
            dot = cfg_mod.emit_dot(graph, decl.name)
        path = out_dir / f"{decl.name}.dot"
        _write(path, dot)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


# -- differential checking -----------------------------------------------------


def program_forms(program: Program) -> dict[str, Program]:
    """The program under every transformation the pipeline can produce."""
    lowered_opt = transform_program(program, True)
    lowered_noopt = transform_program(program, False)
    return {
        "native": program,
        "lowered-opt": lowered_opt,
        "lowered-noopt": lowered_noopt,
        "first-order": defunctionalize(lowered_opt),
    }


def diff_program(program: Program, resumptions: int, step_budget: int) -> list[str]:
    """Run the agreement check; returns human-readable divergences."""
    return diff_forms(program_forms(program), resumptions, step_budget)


# What a form's run costs, roughly in proportion to its interpreter steps
# per `next`: fib-long reads 23 / 49 / 71 / 73, many-short 20 / 48 / 46 / 68.
FORM_COST = {"native": 1, "lowered-opt": 2, "lowered-noopt": 2, "first-order": 3}


def diff_forms(forms: dict[str, Program], resumptions: int, step_budget: int) -> list[str]:
    """The agreement check on the forms program_forms produced. Every
    form runs `main` and traces every generator, and the forms agree when
    `print` would show the same text for every value. The forms are dealt
    to up to one process per usable CPU, this one included (see
    `_run_share`), by FORM_COST: costliest first, each to the share with
    the least cost so far. So on 2 CPUs this process runs native and
    first-order, and a child lowered-opt and lowered-noopt. The report and
    the error raised are those of a serial run: the first run that fails,
    taking every form's output in form order and then each generator's
    traces in form order, raises. Each share keeps form order, so a run
    that a share skips after its first failure comes later in that order."""
    # The language discards a first `next`'s value, so a form that binds
    # it diverges from the native one.
    script = [-1] + list(range(1, resumptions))
    traces = [
        (f"generator {decl.name}: resumption", decl.name, list(range(1, len(decl.params) + 1)))
        for decl in forms["native"].decls
        if decl.is_generator
    ]
    names = list(forms)
    cpus = _usable_cpus()
    workers = max(1, min(len(names), len(cpus)))
    shares = [[] for _ in range(workers)]
    for name in sorted(names, key=FORM_COST.get, reverse=True):
        min(shares, key=lambda share: sum(FORM_COST[form] for form in share)).append(name)
    shares = [sorted(share, key=names.index) for share in shares]
    children = []  # (share, pid, pipe) of every child not reaped yet
    if workers > 1:
        _pin({cpus[0]})
    try:
        rerun = []
        for share, cpu in zip(shares[1:], cpus[1:]):
            try:
                pid, pipe = _run_share(forms, share, traces, script, step_budget, cpu)
            except OSError:  # no process to spare
                rerun.append(share)
            else:
                children.append((share, pid, pipe))
        results = _run_share(forms, shares[0], traces, script, step_budget)
        payloads = [pipe.read() for _, _, pipe in children]
        for payload in payloads:
            share, pid, pipe = children[0]
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status == 0:  # the child exited with code 0 after writing
                results.update(pickle.loads(payload))
            else:  # the child ended without its results
                rerun.append(share)
        for share in rerun:
            results.update(_run_share(forms, share, traces, script, step_budget))
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if workers > 1:
            _pin(cpus)
    whats = ["output line"] + [what for what, _, _ in traces]
    order = [(what, form) for what in whats for form in names]
    for key in order:
        if isinstance(results[key], BaseException):
            raise results[key]
    divergences: list[str] = []
    for what, form in order:
        mismatch = _mismatch(results[what, "native"], results[what, form])
        if mismatch is not None:
            divergences.append(f"{form}: {what} {mismatch}")
    return divergences


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, in order, or none where it
    cannot fork workers and pin each to a CPU of its own."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


def _pin(cpus) -> None:
    """Run this process on `cpus` only, where the system allows it. A
    kernel that does not balance load between CPUs (a cpuset with
    sched_load_balance off) keeps a forked child on its parent's CPU, and
    the workers would take turns on it rather than run at once."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # not a CPU this process may use: run where it is
        pass


def _run_share(forms, share, traces, script, step_budget, cpu=None):
    """Run `main` in each form of `share`, then each generator's trace in
    each of them, and stop at the first run that raises a diagnostic or
    exhausts Python's stack. Returns {(what, form): what `print` would
    show of the values (render_output), or that error}. Given a `cpu`,
    a child process pinned to it runs the share at this same stack depth
    and writes the pickled result to a pipe; this process gets the
    child's pid and the pipe's read end. A forked child starts with the
    forms already built and imports nothing; corolower starts no
    threads, which would make forking unsafe."""
    fork = cpu is not None
    if fork:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid:
            os.close(write_end)
            return pid, open(read_end, "rb")
        os.close(read_end)
    code = 1
    try:
        if fork:
            _pin({cpu})
        runs = [("output line", form, None) for form in share]
        runs += [(what, form, (name, args)) for what, name, args in traces for form in share]
        results = {}
        for what, form, trace in runs:
            try:
                if trace is None:
                    values = Interpreter(forms[form], step_budget).run()
                else:
                    values = resume_sequence(forms[form], *trace, script, step_budget)
                results[what, form] = render_output(values)
            except (MiniError, RecursionError) as err:
                results[what, form] = err
                break
        if not fork:
            return results
        with open(write_end, "wb") as pipe:
            pickle.dump(results, pipe)
        code = 0
    finally:
        if fork:  # the child never returns to its caller
            os._exit(code)


def _mismatch(expected: str, got: str) -> str | None:
    """`i: expected e, got g` for the first line i where two outputs of
    render_output differ, or None when they are equal. A rendered value
    holds no line break."""
    if expected == got:
        return None
    expected_lines, got_lines = expected.splitlines(), got.splitlines()
    i = 0
    while i < min(len(expected_lines), len(got_lines)) and expected_lines[i] == got_lines[i]:
        i += 1
    return f"{i}: expected {_line(expected_lines, i)}, got {_line(got_lines, i)}"


def _line(lines: list[str], index: int) -> str:
    return lines[index] if index < len(lines) else "<missing>"


def cmd_diff(args) -> int:
    step_budget = _step_budget()
    if not 1 <= args.budget <= step_budget:  # each lowered resumption costs a step
        raise _Failure(
            EXIT_COMPILE, f"--budget must be 1 to the step budget {step_budget}, got {args.budget}"
        )
    if args.all_dir and args.inputs:
        raise _Failure(EXIT_COMPILE, "diff takes input files or --all DIR, not both")
    if args.all_dir:
        paths = sorted(str(p) for p in Path(args.all_dir).glob("*.mini"))
        if not paths:
            raise _Failure(EXIT_COMPILE, f"no .mini files in {args.all_dir}")
    else:
        paths = args.inputs
        if not paths:
            raise _Failure(EXIT_COMPILE, "diff needs input files or --all DIR")
    code = EXIT_OK
    if not args.all_dir and len(paths) > 1:
        # Compare the outputs of later files against the first one.
        reference_path, rest = paths[0], paths[1:]
        with _stage(EXIT_RUNTIME, reference_path):
            reference = render_output(Interpreter(_load(reference_path), step_budget).run())
        for path in rest:
            with _stage(EXIT_RUNTIME, path):
                got = render_output(Interpreter(_load(path), step_budget).run())
            mismatch = _mismatch(reference, got)
            if mismatch is None:
                print(f"{path}: OK (matches {reference_path})", file=sys.stderr)
            else:
                print(f"{path}: DIVERGED at output line {mismatch}", file=sys.stderr)
                code = EXIT_DIVERGENCE
        return code
    for path in paths:
        program = _load(path)
        with _stage(EXIT_COMPILE, path):
            forms = program_forms(program)
        with _stage(EXIT_RUNTIME, path):
            divergences = diff_forms(forms, args.budget, step_budget)
        if divergences:
            code = EXIT_DIVERGENCE
            print(f"{path}: DIVERGED", file=sys.stderr)
            for line in divergences:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"{path}: OK", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
