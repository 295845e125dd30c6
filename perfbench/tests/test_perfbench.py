"""Tests of the benchmark itself: its models, exact counts, failure
isolation, tracing and the agreement of BENCHMARK.json with what it
reports. Run with `python3 -m pytest perfbench/tests -q`."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
import workloads
from bench import (
    END_TO_END, FORMS, OPS, PER_LAYER, REFERENCE_S, Bench, Mismatch, Speed, check_values,
    self_times, tail,
)
from conftest import BENCH_DIR, ROOT
from corolower import Interpreter, parse_source
from corolower.interp import resume_sequence
from corolower.syntax import Block, BoolLit, FuncDecl, If, NullLit, Program, Return

SMALL = {
    "fib-long": lambda seed: workloads.fib_long(seed, nexts=50),
    "many-short": lambda seed: workloads.many_short(seed, instances=20),
    "wide-states": lambda seed: workloads.wide_family("wide-states", seed, arms=6, nexts=18),
}

EXACT = (
    [f"steps.{form}" for form in FORMS]
    + ["code_bytes.lowered", "code_bytes.first-order", "cfg.blocks", "cfg.merged_blocks",
       "transform.states", "transform.dispatch_depth"]
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_model_agrees_with_native_run(name):
    wl = SMALL[name](7)
    program = parse_source(wl.source)
    check_values("output", wl.expected_output, Interpreter(program).run())
    trace = resume_sequence(program, wl.generator, list(wl.trace_args), list(workloads.DIFF_SCRIPT))
    check_values("trace", wl.trace_expected, trace)


def test_models_wrap_at_64_bits():
    wl = workloads.fib_long(1, nexts=120)
    assert min(wl.expected_output) < 0  # fib passes 2^63 well before 120 terms
    assert all(-(2**63) <= v < 2**63 for v in wl.expected_output)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat_across_iterations_and_seeds(name):
    runs = []
    for seed in (1, 2):
        b = Bench(SMALL[name](seed))
        for traced in (False, True, True):
            b.iteration(traced)
        assert [r.failure for r in b.results() if r.failure] == []
        runs.append(b.exact)
    assert set(EXACT) <= runs[0].keys()
    assert runs[0] == runs[1]


def test_fib_long_steps_per_next_pinned():
    # The baseline counts of 20,000 resumptions of the paper's fib.
    b = Bench(workloads.fib_long(3, nexts=20_000))
    b.iteration(traced=False)
    assert [r.failure for r in b.results() if r.failure] == []
    steps = {form: b.exact[f"steps.{form}"] for form in FORMS}
    assert steps == {
        "native": 460_005,
        "lowered-opt": 980_007,
        "lowered-noopt": 1_420_003,
        "first-order": 1_459_998,
    }
    assert [round(b.steps_per_next(form)) for form in FORMS] == [23, 49, 71, 73]
    short = Bench(workloads.fib_long(3))
    short.iteration(traced=False)
    assert [round(short.steps_per_next(form)) for form in FORMS] == [23, 49, 71, 73]


def test_a_failing_layer_fails_its_operations_only(monkeypatch):
    def overflow(program):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(bench, "defunctionalize", overflow)
    b = Bench(SMALL["fib-long"](1))
    it = b.iteration(traced=False)
    failures = {op: r.failure for op, r in it.ops.items()}
    assert list(failures) == list(OPS)
    assert failures["compile"] == "RecursionError in defunc.defunctionalize"
    assert failures["run.first-order"].startswith("Missing in bench.run.first-order")
    for op in ("run.native", "run.lowered-opt", "run.lowered-noopt", "diff"):
        assert failures[op] is None
    values = b.end_to_end(setup_s=0.1)
    assert values["fail_share"] == 2 / 6
    assert values["compile_s"] is None and values["run_s.first-order"] is None


def test_wrong_output_is_a_failed_operation():
    wl = SMALL["many-short"](1)
    first = wl.instances[0]
    wrong = dataclasses.replace(first, expected=(first.expected[0] + 1,) + first.expected[1:])
    b = Bench(dataclasses.replace(wl, instances=(wrong,) + wl.instances[1:]))
    it = b.iteration(traced=False)
    for form in FORMS:
        assert it.ops[f"run.{form}"].failure.startswith("Mismatch in bench.check")
    assert it.ops["compile"].failure is None
    assert it.ops["diff"].failure is None  # diff compares the forms, not the model


def test_trace_reports_every_per_layer_metric():
    b = Bench(SMALL["wide-states"](1))
    b.iteration(traced=False)
    b.iteration(traced=True)
    values = b.per_layer()
    assert list(values.keys() - {name for name, _ in PER_LAYER}) == []
    missing = [name for name, _ in PER_LAYER if values[name] is None]
    assert missing == []
    for layer in bench.LAYERS:
        assert values[f"self_s.{layer}"] > 0
    assert values["printer.roundtrip_ok"] == 1
    ids = {record["id"] for record in b.tracer.spans}
    assert "wide-states/1/compile" in ids and all(i.startswith("wide-states/1/") for i in ids)


def test_self_time_subtracts_children():
    spans = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 4.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
        {"parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_speed_scales_by_the_reference_timings_near_an_operation():
    speed = Speed()
    speed.marks = [(0.0, REFERENCE_S), (1.0, REFERENCE_S), (10.0, 2 * REFERENCE_S)]
    assert speed.factor(0.5, 0.8) == 1.0
    assert speed.factor(9.0, 9.5) == 0.5
    assert speed.factor(2.5, 8.5) == pytest.approx(2 / 3)  # marks at 1 and 10


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) == (None, None)
    assert tail(list(range(11))) == (100 / 11, 0)
    assert tail(list(range(1000, 0, -1))) == (99.0, 990)


def test_ast_shape_walks_deeper_than_the_recursion_limit():
    stmt = Return(NullLit())
    for _ in range(5000):
        stmt = If(BoolLit(True), Block([stmt]), None)
    program = Program([FuncDecl("main", [], False, Block([stmt]))])
    # program, decl, body block; each If adds itself, its condition and a block
    assert bench.ast_shape(program) == (3 + 5000 * 3 + 2, 5000)


def test_benchmark_json_matches_the_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    gated = [(name, unit) for name, unit in END_TO_END if name != "fail_share"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == gated
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fib-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_values_tells_null_and_booleans_from_integers():
    check_values("same", [1, None, True], [1, None, True])
    for got in ([True, None, True], [1, 0, True], [1, None, 1], [1, None]):
        with pytest.raises(Mismatch):
            check_values("differs", [1, None, True], got)
