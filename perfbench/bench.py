"""Operations, tracing and metrics of the corolower benchmark.

One iteration attempts the six operations a user of corolower performs:
`compile` a program, `run.<form>` in each of the four forms, and `diff`
the forms. Each operation calls the public functions of corolower's
modules and is timed as a whole; one shorter than MIN_OP_S repeats until
it has run that long, and each repetition is a sample. Times are scaled
to the speed of the baseline machine (see `Speed`).

An operation fails when it raises anything, RecursionError and
BudgetExceeded included, or when an output differs from the workload's
expected output; the failure is recorded with the layer call that
raised and the iteration carries on. The recursion limit and the step
budget stay at the CLI defaults, so the benchmark meets the same
failures a user meets.

A traced iteration also records a span around every layer call, and
probes the layers that the operations do not expose on their own: the
CFG passes, the interpreter's instantiation and resumption, and
`resume_sequence` with diff's script. End-to-end numbers come only from
untraced iterations.
"""

from __future__ import annotations

import gc
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from time import perf_counter

from corolower import (
    Interpreter,
    build_cfg,
    defunctionalize,
    lex,
    merge_blocks,
    parse,
    parse_source,
    plan_generator,
    print_source,
    transform_program,
)
from corolower.cli import diff_program, program_forms
from corolower.interp import DEFAULT_STEP_BUDGET, resume_any, resume_sequence
from corolower.syntax import If, Node

from workloads import DIFF_RESUMPTIONS, DIFF_SCRIPT, Workload

FORMS = ("native", "lowered-opt", "lowered-noopt", "first-order")
LOWERED = FORMS[1:]
OPS = ("compile",) + tuple(f"run.{form}" for form in FORMS) + ("diff",)
MIN_OP_S = 0.2
LAYERS = ("bench", "lexer", "parser", "cfg", "transform", "defunc", "printer", "interp", "cli")

# The end-to-end metrics in the order they are reported, with units.
TIMED = {"compile_s": "compile", "diff_s": "diff"} | {
    f"run_s.{form}": f"run.{form}" for form in FORMS
}
END_TO_END = (
    [("setup_s", "s"), ("compile_s", "s")]
    + [(f"run_s.{form}", "s") for form in FORMS]
    + [(f"steps_per_next.{form}", "steps") for form in FORMS]
    + [("diff_s", "s"), ("code_bytes.lowered", "bytes"), ("code_bytes.first-order", "bytes")]
    + [("peak_rss_mb", "MB"), ("fail_share", "ratio")]
)

PER_LAYER = (
    [
        ("lexer.s", "s"), ("lexer.tokens", "count"),
        ("parser.s", "s"), ("parser.nodes", "count"),
        ("cfg.build_s", "s"), ("cfg.merge_s", "s"), ("cfg.blocks", "count"),
        ("cfg.merged_blocks", "count"), ("cfg.merge_ratio", "ratio"),
        ("transform.opt_s", "s"), ("transform.noopt_s", "s"),
        ("transform.states", "count"), ("transform.dispatch_depth", "count"),
        ("defunc.s", "s"), ("defunc.lifted", "count"),
        ("printer.s.lowered", "s"), ("printer.s.first-order", "s"),
        ("printer.roundtrip_ok", "count"),
        ("cli.program_forms_s", "s"),
    ]
    + [(f"interp.steps_per_s.{form}", "steps/s") for form in FORMS]
    + [(f"interp.next_us.p50.{form}", "us") for form in FORMS]
    + [(f"interp.next_us.tail.{form}", "us") for form in FORMS]
    + [(f"interp.instantiate_us.{form}", "us") for form in FORMS]
    + [(f"interp.trace_s.{form}", "s") for form in FORMS]
    + [(f"interp.dispatch_steps_per_next.{form}", "steps") for form in LOWERED]
    + [(f"self_s.{layer}", "s") for layer in LAYERS]
    + [(f"trace.overhead_s.{op}", "s") for op in OPS]
)


class Mismatch(Exception):
    """An output that differs from the workload's expected output."""


class Missing(Exception):
    """An operation whose input an earlier operation failed to produce."""


def same_value(expected, got) -> bool:
    # `type` keeps true apart from 1 and null apart from 0.
    return type(expected) is type(got) and expected == got


def check_values(what: str, expected, got) -> None:
    for index, (want, have) in enumerate(zip(expected, got)):
        if not same_value(want, have):
            raise Mismatch(f"{what}: item {index}: expected {want!r}, got {have!r}")
    if len(expected) != len(got):
        raise Mismatch(f"{what}: expected {len(expected)} items, got {len(got)}")


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans around layer calls, kept in memory until the run ends.

    A span has a name `<layer>.<call>`, a start and end in seconds since
    the tracer was made, its parent span, the id
    `workload/iteration/operation` it belongs to, and the counts recorded
    at its boundary. The tracer also remembers the innermost span an
    exception left, which is where an operation failed; it does so with
    tracing off as well."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.op_id = ""
        self.failed_in: str | None = None
        self._open: list[int | None] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str):
        index = None
        if self.enabled:
            index = len(self.spans)
            self.spans.append({
                "span": index,
                "parent": self._open[-1] if self._open else None,
                "id": self.op_id,
                "name": name,
                "start": perf_counter() - self._origin,
                "end": None,
                "counts": {},
            })
        self._open.append(index)
        try:
            yield
        except BaseException:
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            self._open.pop()
            if index is not None:
                self.spans[index]["end"] = perf_counter() - self._origin

    def count(self, name: str, counts: dict) -> None:
        """Attach counts to the latest span of this name in this operation."""
        if not self.enabled:
            return
        for record in reversed(self.spans):
            if record["id"] != self.op_id:
                break
            if record["name"] == name:
                record["counts"].update(counts)
                return


def self_times(spans: list[dict]) -> list[float]:
    """Each span's self time: its duration less the time its children cover
    (children of one span never overlap)."""
    own = [record["end"] - record["start"] for record in spans]
    for record in spans:
        if record["parent"] is not None:
            own[record["parent"]] -= record["end"] - record["start"]
    return own


# -- machine speed ---------------------------------------------------------------


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next):
        self.value = value
        self.next = next


def reference_work(n: int = 24_000) -> int:
    """A fixed pure-Python load that touches no corolower code, made of the
    kinds of work the interpreter does: allocation, attribute and dict
    access, isinstance tests and integer arithmetic."""
    env = {"a": 0, "b": 1}
    chain = None
    for i in range(n):
        chain = _Cell(i, chain if i % 64 else None)
        if isinstance(chain.value, int) and not isinstance(chain.value, bool):
            env["a"], env["b"] = env["b"], (env["a"] + env["b"]) % 1_000_003
    return env["b"]


def reference_seconds() -> float:
    samples = []
    for _ in range(3):
        start = perf_counter()
        reference_work()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


# Median of reference_seconds() on the machine the baseline comes from: a
# 2-vCPU Xeon virtual machine at 2.1 GHz, Python 3.11.7.
REFERENCE_S = 0.0156
# Reference timings within this many seconds of an operation estimate the
# machine's speed while it ran.
WINDOW_S = 2.0


class Speed:
    """Scales wall times to the speed of the baseline machine.

    The machine the baseline comes from shares its processors. The speed of
    a fixed loop there swings by up to 25 % from one half-second to the
    next and drifts by as much over minutes. Raw wall times of one program
    spread more between runs than any bound could allow. So
    reference_work is timed before every operation, and an operation's
    seconds are multiplied by REFERENCE_S over the mean of the reference
    timings taken within WINDOW_S of it. The report shows raw times too."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (when, reference seconds)

    def sample(self) -> None:
        self.marks.append((perf_counter(), reference_seconds()))

    def factor(self, start: float, end: float) -> float:
        near = [s for at, s in self.marks if start - WINDOW_S <= at <= end + WINDOW_S]
        return REFERENCE_S / statistics.mean(near)


# -- AST measures ---------------------------------------------------------------


def _children(node: Node):
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item
                elif isinstance(item, tuple):  # record literal fields
                    yield from (x for x in item if isinstance(x, Node))


def ast_shape(program: Node) -> tuple[int, int]:
    """(node count, deepest nesting of `If`), by an iterative walk: the
    lowered programs nest too deeply for a recursive one."""
    nodes = deepest = 0
    stack = [(program, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if isinstance(node, If):
            depth += 1
            deepest = max(deepest, depth)
        stack.extend((child, depth) for child in _children(node))
    return nodes, deepest


# -- one run --------------------------------------------------------------------


@dataclass
class OpResult:
    samples: list[float] = field(default_factory=list)  # raw wall seconds
    start: float = 0.0  # perf_counter() around all the samples
    end: float = 0.0
    failure: str | None = None


@dataclass
class Iteration:
    index: int
    traced: bool
    ops: dict[str, OpResult] = field(default_factory=dict)
    # Per-layer probes of a traced iteration; not end-to-end operations.
    probes: dict[str, OpResult] = field(default_factory=dict)


class Bench:
    """Runs iterations of one workload and turns them into metrics."""

    def __init__(self, workload: Workload, speed: Speed | None = None):
        self.wl = workload
        self.speed = speed or Speed()
        self.tracer = Tracer()
        self.iterations: list[Iteration] = []
        # Counts that must repeat exactly: steps.<form>, code_bytes.<kind>
        # and the per-layer counts.
        self.exact: dict[str, int] = {}
        self.texts: dict[str, str] = {}
        self.roundtrip_ok: int | None = None
        self.next_samples: dict[str, list[float]] = {form: [] for form in FORMS}
        self.instantiate_samples: dict[str, list[float]] = {form: [] for form in FORMS}

    def _exact(self, key: str, value: int) -> None:
        before = self.exact.setdefault(key, value)
        if before != value:
            raise Mismatch(f"{key} changed from {before} to {value}")

    def _attempt(self, it: Iteration, key: str, fn, probe: bool = False) -> None:
        self.tracer.op_id = f"{self.wl.name}/{it.index}/{key}"
        self.tracer.failed_in = None
        gc.collect()
        result = OpResult()
        try:
            if probe:
                fn()
            else:
                self.speed.sample()
                result.start = perf_counter()
                # A few-millisecond compile repeats until it has run for
                # MIN_OP_S, so that its median is not one noisy sample.
                # Traced iterations call each layer once, for the spans.
                result.samples.append(fn())
                while not it.traced and sum(result.samples) < MIN_OP_S:
                    result.samples.append(fn())
                result.end = perf_counter()
        except Exception as err:  # every failure is recorded, none ends the run
            result.samples = []
            where = self.tracer.failed_in or f"bench.{key}"
            detail = f": {err}" if isinstance(err, (Mismatch, Missing)) else ""
            result.failure = f"{type(err).__name__} in {where}{detail}"
        (it.probes if probe else it.ops)[key] = result

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(len(self.iterations), traced)
        self.tracer.enabled = traced
        forms: dict = {}
        self._attempt(it, "compile", lambda: self._compile(forms))
        for form in FORMS:
            self._attempt(it, f"run.{form}", lambda f=form: self._run(forms, f))
        self._attempt(it, "diff", lambda: self._diff(forms))
        if traced:
            self._attempt(it, "cfg", lambda: self._cfg(forms), probe=True)
            self._attempt(it, "program_forms", lambda: self._program_forms(forms), probe=True)
            for form in FORMS:
                self._attempt(it, f"drive.{form}", lambda f=form: self._drive(forms, f), probe=True)
                self._attempt(it, f"trace.{form}", lambda f=form: self._trace(forms, f), probe=True)
        self.tracer.enabled = False
        self.iterations.append(it)
        return it

    # -- operations ----------------------------------------------------------

    def _compile(self, forms: dict) -> float:
        tr = self.tracer
        start = perf_counter()
        with tr.span("bench.compile"):
            with tr.span("lexer.lex"):
                tokens = lex(self.wl.source)
            with tr.span("parser.parse"):
                forms["native"] = parse(tokens)
            with tr.span("transform.opt"):
                forms["lowered-opt"] = transform_program(forms["native"], True)
            with tr.span("transform.noopt"):
                forms["lowered-noopt"] = transform_program(forms["native"], False)
            with tr.span("defunc.defunctionalize"):
                forms["first-order"] = defunctionalize(forms["lowered-opt"])
            with tr.span("printer.lowered"):
                lowered = print_source(forms["lowered-opt"])
            with tr.span("printer.first-order"):
                first_order = print_source(forms["first-order"])
        seconds = perf_counter() - start
        with tr.span("bench.check"):
            self._check_texts({"lowered": lowered, "first-order": first_order})
            if tr.enabled:
                self._compile_counts(tokens, forms)
        return seconds

    def _check_texts(self, texts: dict[str, str]) -> None:
        """The printed programs reparse to themselves (checked once per
        run) and print the same in every iteration."""
        if self.roundtrip_ok is None:
            self.roundtrip_ok = int(
                all(print_source(parse_source(t)) == t for t in texts.values())
            )
            self.texts = texts
        if not self.roundtrip_ok:
            raise Mismatch("a printed program does not reparse to itself")
        for kind, text in texts.items():
            if text != self.texts[kind]:
                raise Mismatch(f"the {kind} program printed differently than before")
            self._exact(f"code_bytes.{kind}", len(text.encode()))

    def _compile_counts(self, tokens, forms: dict) -> None:
        nodes, _ = ast_shape(forms["native"])
        _, depth = ast_shape(forms["lowered-opt"])
        generators = [d for d in forms["native"].decls if d.is_generator]
        states = sum(len(plan_generator(d, True)[1].states) for d in generators)
        # Top-level functions defunctionalize adds: lifted machines and apply.
        lifted = len(
            {d.name for d in forms["first-order"].decls}
            - {d.name for d in forms["lowered-opt"].decls}
        )
        for span, counts in (
            ("lexer.lex", {"lexer.tokens": len(tokens)}),
            ("parser.parse", {"parser.nodes": nodes}),
            ("transform.opt", {"transform.states": states, "transform.dispatch_depth": depth}),
            ("defunc.defunctionalize", {"defunc.lifted": lifted}),
        ):
            self.tracer.count(span, counts)
            for key, value in counts.items():
                self._exact(key, value)

    def _program(self, forms: dict, form: str):
        if form not in forms:
            raise Missing(f"compile did not produce the {form} program")
        return forms[form]

    def _run(self, forms: dict, form: str) -> float:
        program = self._program(forms, form)
        with self.tracer.span(f"bench.run.{form}"):
            start = perf_counter()
            with self.tracer.span(f"interp.run.{form}"):
                interp = Interpreter(program, DEFAULT_STEP_BUDGET)
                output = interp.run()
            seconds = perf_counter() - start
            self.tracer.count(f"interp.run.{form}", {"steps": interp.steps})
            with self.tracer.span("bench.check"):
                check_values(f"run.{form} output", self.wl.expected_output, output)
                self._exact(f"steps.{form}", interp.steps)
        return seconds

    def _diff(self, forms: dict) -> float:
        program = self._program(forms, "native")
        with self.tracer.span("bench.diff"):
            start = perf_counter()
            with self.tracer.span("cli.diff_program"):
                divergences = diff_program(program, DIFF_RESUMPTIONS, DEFAULT_STEP_BUDGET)
            seconds = perf_counter() - start
        if divergences:
            raise Mismatch("; ".join(divergences))
        return seconds

    # -- per-layer probes, traced iterations only -----------------------------

    def _cfg(self, forms: dict) -> None:
        generators = [d for d in self._program(forms, "native").decls if d.is_generator]
        blocks = merged = 0
        for decl in generators:
            with self.tracer.span("cfg.build_cfg"):
                graph = build_cfg(decl)
            with self.tracer.span("cfg.merge_blocks"):
                smaller = merge_blocks(graph)
            blocks += len(graph.blocks)
            merged += len(smaller.blocks)
        counts = {"cfg.blocks": blocks, "cfg.merged_blocks": merged}
        self.tracer.count("cfg.merge_blocks", counts)
        for key, value in counts.items():
            self._exact(key, value)

    def _program_forms(self, forms: dict) -> None:
        program = self._program(forms, "native")
        with self.tracer.span("cli.program_forms"):
            program_forms(program)

    def _drive(self, forms: dict, form: str) -> None:
        """Instantiate and resume the workload's generator as `main` does,
        timing each call."""
        program = self._program(forms, form)
        nexts = self.next_samples[form]
        instantiations = self.instantiate_samples[form]
        got = []
        with self.tracer.span(f"interp.drive.{form}"):
            interp = Interpreter(program, DEFAULT_STEP_BUDGET)
            factory = interp.globals.lookup(self.wl.generator)
            for inst in self.wl.instances:
                start = perf_counter()
                instance = interp.call(factory, list(inst.args))
                instantiations.append(perf_counter() - start)
                for value in inst.resumes:
                    start = perf_counter()
                    got.append(resume_any(interp, instance, value))
                    nexts.append(perf_counter() - start)
        self.tracer.count(
            f"interp.drive.{form}",
            {"instances": len(self.wl.instances), "resumptions": len(got)},
        )
        check_values(f"drive.{form}", self.wl.expected_output, got)

    def _trace(self, forms: dict, form: str) -> None:
        program = self._program(forms, form)
        with self.tracer.span(f"interp.resume_sequence.{form}"):
            got = resume_sequence(
                program, self.wl.generator, list(self.wl.trace_args),
                list(DIFF_SCRIPT), DEFAULT_STEP_BUDGET,
            )
        check_values(f"trace.{form}", self.wl.trace_expected, got)

    # -- metrics --------------------------------------------------------------

    def results(self, traced: bool | None = None) -> list[OpResult]:
        """Every operation and probe attempted; with `traced` given, only
        the end-to-end operations of untraced (False) or traced (True)
        iterations."""
        if traced is None:
            return [
                r for it in self.iterations
                for r in (*it.ops.values(), *it.probes.values())
            ]
        return [r for it in self.iterations if it.traced == traced for r in it.ops.values()]

    def op_seconds(self, op: str, traced: bool = False, raw: bool = False) -> list[float]:
        """Samples of one operation, scaled to the baseline machine's speed
        unless `raw`."""
        out = []
        for it in self.iterations:
            result = it.ops[op]
            if it.traced == traced and result.samples:
                scale = 1.0 if raw else self.speed.factor(result.start, result.end)
                out.extend(seconds * scale for seconds in result.samples)
        return out

    def steps_per_next(self, form: str) -> float | None:
        steps = self.exact.get(f"steps.{form}")
        return None if steps is None else steps / self.wl.resumptions

    def end_to_end(self, setup_s: float | None) -> dict[str, float | None]:
        values: dict[str, float | None] = {"setup_s": setup_s}
        for metric, op in TIMED.items():
            values[metric] = median(self.op_seconds(op))
        for form in FORMS:
            values[f"steps_per_next.{form}"] = self.steps_per_next(form)
        for kind in ("lowered", "first-order"):
            values[f"code_bytes.{kind}"] = self.exact.get(f"code_bytes.{kind}")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        plain = self.results(traced=False)
        failed = sum(1 for r in plain if r.failure)
        values["fail_share"] = failed / len(plain) if plain else None
        return values

    def per_layer(self) -> dict[str, float | None]:
        traced = [it.index for it in self.iterations if it.traced]
        span_s = {index: {} for index in traced}
        layer_s = {index: dict.fromkeys(LAYERS, 0.0) for index in traced}
        spans = self.tracer.spans
        for record, own in zip(spans, self_times(spans)):
            index = int(record["id"].rsplit("/", 2)[1])
            name = record["name"]
            span_s[index][name] = span_s[index].get(name, 0.0) + record["end"] - record["start"]
            layer_s[index][name.split(".", 1)[0]] += own

        def span_median(name: str) -> float | None:
            return median([d[name] for d in span_s.values() if name in d])

        values: dict[str, float | None] = {
            "lexer.s": span_median("lexer.lex"),
            "parser.s": span_median("parser.parse"),
            "cfg.build_s": span_median("cfg.build_cfg"),
            "cfg.merge_s": span_median("cfg.merge_blocks"),
            "transform.opt_s": span_median("transform.opt"),
            "transform.noopt_s": span_median("transform.noopt"),
            "defunc.s": span_median("defunc.defunctionalize"),
            "printer.s.lowered": span_median("printer.lowered"),
            "printer.s.first-order": span_median("printer.first-order"),
            "printer.roundtrip_ok": self.roundtrip_ok,
            "cli.program_forms_s": span_median("cli.program_forms"),
        }
        for name in ("lexer.tokens", "parser.nodes", "cfg.blocks", "cfg.merged_blocks",
                     "transform.states", "transform.dispatch_depth", "defunc.lifted"):
            values[name] = self.exact.get(name)
        blocks, merged = self.exact.get("cfg.blocks"), self.exact.get("cfg.merged_blocks")
        values["cfg.merge_ratio"] = merged / blocks if blocks else None

        native = self.steps_per_next("native")
        for form in FORMS:
            steps = self.exact.get(f"steps.{form}")
            run_s = span_median(f"interp.run.{form}")
            values[f"interp.steps_per_s.{form}"] = steps / run_s if steps and run_s else None
            nexts = [s * 1e6 for s in self.next_samples[form]]
            values[f"interp.next_us.p50.{form}"] = median(nexts)
            values[f"interp.next_us.tail.{form}"] = tail(nexts)[1]
            values[f"interp.instantiate_us.{form}"] = median(
                [s * 1e6 for s in self.instantiate_samples[form]]
            )
            values[f"interp.trace_s.{form}"] = span_median(f"interp.resume_sequence.{form}")
        for form in LOWERED:
            lowered = self.steps_per_next(form)
            values[f"interp.dispatch_steps_per_next.{form}"] = (
                lowered - native if lowered is not None and native is not None else None
            )
        for layer in LAYERS:
            values[f"self_s.{layer}"] = median([d[layer] for d in layer_s.values()])
        for op in OPS:
            traced_s = median(self.op_seconds(op, traced=True))
            plain_s = median(self.op_seconds(op))
            values[f"trace.overhead_s.{op}"] = (
                traced_s - plain_s if traced_s is not None and plain_s is not None else None
            )
        return values


def median(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest percentile that has at least ten
    samples beyond it, or (None, None) when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None, None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]
