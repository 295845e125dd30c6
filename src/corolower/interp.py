"""Table-dispatched evaluator defining the semantics of both languages.

One evaluator runs generator-bearing source programs (interp_native) and
the lowered/first-order outputs (interp). Generators are instantiated
lazily and resumed through `next`; `next` on a closure is plain
application of one argument, which is what lets a driver written against
generators run unmodified against the lowered program.

Values: 64-bit integers with wrapping arithmetic, booleans, null,
closures over a shared mutable environment, generator instances,
records, and late-bound function references. Locals are function-scoped
and pre-bound to null when a frame is created, mirroring the uniform
variable hoisting performed by the lowering (a `let` executes as plain
assignment into the frame).

Evaluation looks each node's class up in one of two module-level
tables, `_EXPR` and `_STMT`, and calls the handler found there. A
handler charges its node's step before anything else: one step per
evaluated expression, per executed statement and per further `while`
iteration. Binary operators on two integers are looked up in
`_INT_OPS`. Function bodies run in one of two ways:

- `Interpreter.call` runs a plain body's statements itself, as `_if`,
  `_switch` and `_while` run their blocks', so one call costs one Python
  frame.
- `_exec_gen` is the Python generator behind a generator instance. It
  handles `yield`, `let x = yield`, `if` and `while` itself, and hands
  every other statement to `_STMT`; validation keeps `switch` out of a
  generator's body. It returns None when the body falls
  off its end and `(value,)` on `return`.

The step budget is checked only where a run can go on without end or be
seen, as a runtime checks at yieldpoints: each `while` iteration, entry
to and return from `call`, return from `resume`, and `print` between
evaluating its value and appending it. `steps` only grows, so a run
found past the budget at such a point passed it at a step since the
last one, with nothing seen in between: `_exhausted` sets `steps` to
budget + 1, where a check at every node would have stopped. A runtime
error raised past the budget is that exhaustion (`call` and `resume`
turn it into one), and so is running out of Python's stack (`run` and
`trace_instance`).

A state machine selects its state in one of two ways, each taken with
one lookup. A machine of more than four states, or an optimized one of
four (transform.CHAIN_MAX), dispatches through a `switch`: `_switch`
charges its step and its subject's, then takes the case for an integer
value from the table on the node, or runs `else`. A smaller one
dispatches through an `_i == k` chain, the lowered machine's or its
`F_fo`'s. An `if` whose condition is `==` between a selector, a variable
or a field of one, and an integer literal heads such a chain. The head
reads the selector without charging a step, and `_arm` looks its value
up in the arms cached on the `if`; on a miss it walks the chain's tests
in Python, keeping the arm it finds when a test held. When the value is
an integer, the tests' steps are charged at once and the block run; such
tests cannot raise, so outputs, steps and errors are exact. The sink 0 and any other value no
test matches cost one walk each time. Any value that is not an integer
(null, a boolean, a record, an unbound name, a missing field) runs the
tests one by one, where the error is raised at the step it always was.

`trace_instance` is the one loop that traces a generator, one result per
resumption; `resume_sequence` uses it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field

from .errors import BudgetExceeded, InterpError, ValidationError
from .syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    ExprStmt,
    FieldGet,
    FieldSet,
    FuncLit,
    FuncRef,
    If,
    IntLit,
    Let,
    LetYield,
    NextCall,
    NullLit,
    Print,
    Program,
    RecordLit,
    Return,
    Switch,
    Unary,
    Var,
    While,
    YieldStmt,
)

DEFAULT_STEP_BUDGET = 10_000_000

NULL = None

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1
_WRAP = 2**64

_OVER = "step budget exceeded"


def wrap64(x: int) -> int:
    if _INT_MIN <= x <= _INT_MAX:
        return x
    return (x - _INT_MIN) % _WRAP + _INT_MIN


@dataclass(eq=False)
class Closure:
    params: list[str]
    body: Block
    env: "Env"
    is_generator: bool = False
    name: str | None = None


@dataclass(eq=False)
class GenInstance:
    """A generator instance: `runner` is the Python generator that runs its
    body, made with the instance and started by its first resumption."""

    name: str | None
    runner: object = dc_field(repr=False)
    started: bool = False


@dataclass(eq=False)
class Record:
    fields: dict


@dataclass(eq=False)
class FuncRefV:
    name: str


class Env:
    """Mutable name->value bindings with innermost-first lookup."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Env | None" = None, bindings: dict | None = None):
        self.vars: dict[str, object] = {} if bindings is None else bindings
        self.parent = parent

    def lookup(self, name, node=None):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise _err(f"unbound name {name!r}", node)


def _err(message, node=None):
    pos = getattr(node, "pos", None)
    if pos is not None:
        return InterpError(message, pos.line, pos.col)
    return InterpError(message)


def _not_int(v, node):
    return _err(f"expected an integer, got {render_value(v)}", node)


def _bool(v, node) -> bool:
    if v is True or v is False:
        return v
    raise _not_bool(v, node)


def _not_bool(v, node):
    return _err(f"expected a boolean, got {render_value(v)}", node)


def values_equal(a, b) -> bool:
    """Language-level `==`: by value for int/bool/null (never across
    types), by identity for records/closures/instances, by name for
    function references."""
    if a is NULL or b is NULL:
        return a is NULL and b is NULL
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, FuncRefV) and isinstance(b, FuncRefV):
        return a.name == b.name
    return a is b


def render_value(v) -> str:
    if v is NULL:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Record):
        inner = ", ".join(f"{k}: {render_value(x)}" for k, x in v.fields.items())
        return "{ " + inner + " }" if inner else "{}"
    if isinstance(v, FuncRefV):
        return f"&{v.name}"
    if isinstance(v, GenInstance):
        return f"<generator {v.name or 'fn'}>"
    if isinstance(v, Closure):
        return f"<fn {v.name}>" if v.name else "<fn>"
    raise AssertionError(f"unrenderable value {v!r}")


def render_output(values) -> str:
    return "".join(render_value(v) + "\n" for v in values)


class Interpreter:
    def __init__(self, program: Program, step_budget: int = DEFAULT_STEP_BUDGET):
        self.program = program
        self.step_budget = step_budget
        self.steps = 0
        self.output: list[object] = []
        self.globals = Env()
        for decl in program.decls:
            self.globals.vars[decl.name] = Closure(
                decl.params, decl.body, self.globals, decl.is_generator, decl.name
            )

    # -- driving ------------------------------------------------------------

    def run(self) -> list[object]:
        entry = self.globals.lookup(self.program.entry)
        try:
            self.call(entry, [])
        except RecursionError:
            if self.steps > self.step_budget:
                raise self._exhausted() from None
            raise
        return self.output

    def _exhausted(self) -> BudgetExceeded:
        """The error of a run found past its budget, stopped one step past it."""
        self.steps = self.step_budget + 1
        return BudgetExceeded(_OVER)

    # -- calls and resumption -------------------------------------------------

    def call(self, fn, args, node=None):
        if self.steps > self.step_budget:
            raise self._exhausted()
        if type(fn) is FuncRefV:
            fn = self._resolve_ref(fn, node)
        if type(fn) is not Closure:
            raise _err(f"value {render_value(fn)} is not callable", node)
        if len(args) != len(fn.params):
            raise _err(
                f"{fn.name or 'fn'} expects {len(fn.params)} argument(s), got {len(args)}",
                node,
            )
        bindings = dict(zip(fn.params, args))
        for name in fn.body.declared:
            bindings.setdefault(name, NULL)
        env = Env(fn.env, bindings)
        if fn.is_generator:
            return GenInstance(fn.name, _exec_gen(self, fn.body.stmts, env))
        # The body runs here, not through a helper: one Python frame per call.
        try:
            for stmt in fn.body.stmts:
                result = _STMT[type(stmt)](self, stmt, env)
                if result is not None:
                    break
            else:
                result = (NULL,)
        except InterpError:
            if self.steps > self.step_budget:
                raise self._exhausted() from None
            raise
        if self.steps > self.step_budget:
            raise self._exhausted()
        return result[0]

    def _resolve_ref(self, ref: FuncRefV, node=None) -> Closure:
        # A function reference names a global; globals hold only closures.
        target = self.globals.vars.get(ref.name)
        if type(target) is not Closure:
            if target is None:
                raise _err(f"unbound name {ref.name!r}", node)
            raise _err(f"&{ref.name} does not name a function", node)
        return target

    def next_value(self, target, value, node=None):
        if type(target) is GenInstance:
            return self.resume(target, value)
        if type(target) is Closure:
            return self.call(target, [value], node)
        raise _err(f"next on non-resumable value {render_value(target)}", node)

    def resume(self, inst: GenInstance, value):
        """Resume protocol: first resumption discards its value and runs from
        the top; later ones deliver the value to a `let x = yield` receiver;
        the finishing one returns the `return` value, or null; a finished
        instance keeps returning null, because a finished Python generator
        raises a bare StopIteration on every later send."""
        if not inst.started:
            inst.started = True
            value = None  # not-started: the argument is discarded
        try:
            value = inst.runner.send(value)
        except StopIteration as stop:
            value = NULL if stop.value is None else stop.value[0]
        except (InterpError, ValueError) as err:
            if self.steps > self.step_budget:
                raise self._exhausted() from None
            if type(err) is ValueError:
                raise _err("generator is already running")
            raise
        if self.steps > self.step_budget:
            raise self._exhausted()
        return value


# -- executors ----------------------------------------------------------------
#
# Every handler takes (interpreter, node, env) and starts by charging the
# node's step. Statement handlers return None, or the `(value,)` of a
# `return` for the executor to pass up.


def _exec_gen(it: Interpreter, stmts, env: Env):
    for stmt in stmts:
        kind = type(stmt)
        if kind not in _GEN_KINDS:
            result = _STMT[kind](it, stmt, env)
            if result is not None:
                return result
            continue
        it.steps += 1
        if kind is If:
            cond = stmt.cond
            block = stmt.then if _bool(_EXPR[type(cond)](it, cond, env), cond) else stmt.orelse
            if block is not None:
                result = yield from _exec_gen(it, block.stmts, env)
                if result is not None:
                    return result
        elif kind is While:
            cond, body = stmt.cond, stmt.body.stmts
            while _bool(_EXPR[type(cond)](it, cond, env), cond):
                result = yield from _exec_gen(it, body, env)
                if result is not None:
                    return result
                it.steps += 1
                if it.steps > it.step_budget:
                    raise it._exhausted()
        else:
            value = stmt.value
            received = yield _EXPR[type(value)](it, value, env)
            if kind is LetYield:
                env.vars[stmt.name] = received
    return None


# The statements that `_exec_gen` runs itself, because they may yield.
_GEN_KINDS = frozenset({If, While, YieldStmt, LetYield})


# -- statements -----------------------------------------------------------------


def _assign(it, stmt, env):
    it.steps += 1
    value = stmt.value
    value = _EXPR[type(value)](it, value, env)
    name = stmt.name
    while name not in env.vars:
        env = env.parent
        if env is None:
            raise _err(f"assignment to undeclared name {name!r}", stmt)
    env.vars[name] = value


def _yield_outside_generator(it, stmt, env):
    # Validation rejects a yield outside a generator; _exec_gen runs its own.
    raise AssertionError("yield escaped a non-generator body")


def _if(it, stmt, env):
    if stmt.dispatch is not None and (arm := _arm(it, stmt, env)) is not None:
        it.steps += arm[1]
        block = arm[0]
        if block is None:
            return None
    else:
        it.steps += 1
        cond = stmt.cond
        truth = _EXPR[type(cond)](it, cond, env)
        if truth is True:
            block = stmt.then
        elif truth is False:
            block = stmt.orelse
            if block is None:
                return None
        else:
            raise _not_bool(truth, cond)
    # The branch runs here, not through a helper: one Python frame per level.
    for inner in block.stmts:
        result = _STMT[type(inner)](it, inner, env)
        if result is not None:
            return result
    return None


def _arm(it, stmt, env):
    """The arm of the dispatch chain under stmt that the selector's value
    picks: the block its tests reach (None when an `if` without else is
    false) and the steps they charge, read without charging a step. None
    unless the value is an integer, so that the tests could raise nothing.
    The budget is checked after them, as after any node (module docstring).

    The chain is stmt and, below any `if` of it, the `if` that is the one
    statement of its else block when that tests the same selector. A test
    charges 4 steps (the if, the comparison, the selector and the
    literal), 5 with a field. On a miss in stmt's arms the tests are walked
    here, and the arm is kept when a test held, so the arms hold at most
    one entry per literal of the chain."""
    name, field, arms = stmt.dispatch
    while name not in env.vars:
        env = env.parent
        if env is None:
            return None
    value = env.vars[name]
    if field is not None:
        if type(value) is not Record:
            return None
        value = value.fields.get(field)
    if type(value) is not int:  # a bool would find the arm of 0 or 1
        return None
    arm = arms.get(value)
    if arm is None:
        cost, steps, test = 4 if field is None else 5, 0, stmt
        while True:
            steps += cost
            if value == test.cond.rhs.value:
                arm = arms[value] = (test.then, steps)
                break
            block = test.orelse
            test = block.stmts[0] if block is not None and len(block.stmts) == 1 else None
            if type(test) is not If or test.dispatch is None or test.dispatch[:2] != (name, field):
                arm = (block, steps)
                break
    return arm


def _switch(it, stmt, env):
    it.steps += 1
    subject = stmt.subject
    value = _EXPR[type(subject)](it, subject, env)
    # Only an int selects a case: a bool would find the case of 0 or 1.
    block = stmt.table.get(value) if type(value) is int else None
    if block is None:
        block = stmt.orelse
        if block is None:
            return None
    # The case runs here, not through a helper, as in _if.
    for inner in block.stmts:
        result = _STMT[type(inner)](it, inner, env)
        if result is not None:
            return result
    return None


def _while(it, stmt, env):
    it.steps += 1
    cond, body = stmt.cond, stmt.body.stmts
    while _bool(_EXPR[type(cond)](it, cond, env), cond):
        for inner in body:
            result = _STMT[type(inner)](it, inner, env)
            if result is not None:
                return result
        it.steps += 1
        if it.steps > it.step_budget:
            raise it._exhausted()
    return None


def _return(it, stmt, env):
    it.steps += 1
    value = stmt.value
    if value is None:
        return (NULL,)
    return (_EXPR[type(value)](it, value, env),)


def _print(it, stmt, env):
    it.steps += 1
    value = stmt.value
    value = _EXPR[type(value)](it, value, env)
    if it.steps > it.step_budget:  # what is printed is seen
        raise it._exhausted()
    it.output.append(value)


def _expr_stmt(it, stmt, env):
    it.steps += 1
    value = stmt.value
    _EXPR[type(value)](it, value, env)


def _field_set(it, stmt, env):
    it.steps += 1
    record, value = stmt.record, stmt.value
    record = _EXPR[type(record)](it, record, env)
    if type(record) is not Record or stmt.field not in record.fields:
        raise _field_error(record, stmt, "assignment")
    record.fields[stmt.field] = _EXPR[type(value)](it, value, env)


def _field_error(record, node, action):
    if type(record) is not Record:
        return _err(f"field {action} on a non-record value", node)
    return _err(f"record has no field {node.field!r}", node)


_STMT = {
    Let: _assign,  # every frame pre-binds its locals
    Assign: _assign,
    LetYield: _yield_outside_generator,
    YieldStmt: _yield_outside_generator,
    If: _if,
    Switch: _switch,
    While: _while,
    Return: _return,
    Print: _print,
    ExprStmt: _expr_stmt,
    FieldSet: _field_set,
}


# -- expressions ------------------------------------------------------------------


def _literal(it, expr, env):
    it.steps += 1
    return expr.value


def _null(it, expr, env):
    it.steps += 1
    return NULL


def _var(it, expr, env):
    it.steps += 1
    name = expr.name
    while env is not None:
        if name in env.vars:
            return env.vars[name]
        env = env.parent
    raise _err(f"unbound name {name!r}", expr)


def _binary(it, expr, env):
    it.steps += 1
    op, lhs, rhs = expr.op, expr.lhs, expr.rhs
    a = _EXPR[type(lhs)](it, lhs, env)
    if op in _SHORT_CIRCUIT:
        # The lhs decides `&&` when false and `||` when true.
        if _bool(a, lhs) is _SHORT_CIRCUIT[op]:
            return a
        return _bool(_EXPR[type(rhs)](it, rhs, env), rhs)
    b = _EXPR[type(rhs)](it, rhs, env)
    if type(a) is int and type(b) is int:
        try:
            return _INT_OPS[op](a, b)
        except ZeroDivisionError:
            raise _err(_BY_ZERO[op], expr) from None
    if op == "==":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    raise _not_int(b if type(a) is int else a, expr)


def _div(a, b):
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def _mod(a, b):
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(a - q * b)


_SHORT_CIRCUIT = {"&&": False, "||": True}
_BY_ZERO = {"/": "division by zero", "%": "modulo by zero"}
# On two integers `==` and `!=` agree with values_equal.
_INT_OPS = {
    "+": lambda a, b: wrap64(a + b),
    "-": lambda a, b: wrap64(a - b),
    "*": lambda a, b: wrap64(a * b),
    "/": _div,
    "%": _mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _unary(it, expr, env):
    it.steps += 1
    operand = expr.operand
    operand = _EXPR[type(operand)](it, operand, env)
    if expr.op == "-":
        if type(operand) is not int:
            raise _not_int(operand, expr)
        return wrap64(-operand)
    return not _bool(operand, expr)


def _call(it, expr, env):
    it.steps += 1
    callee = expr.callee
    fn = _EXPR[type(callee)](it, callee, env)
    return it.call(fn, [_EXPR[type(a)](it, a, env) for a in expr.args], expr)


def _next_call(it, expr, env):
    it.steps += 1
    gen, arg = expr.gen, expr.arg
    target = _EXPR[type(gen)](it, gen, env)
    value = NULL if arg is None else _EXPR[type(arg)](it, arg, env)
    return it.next_value(target, value, expr)


def _field_get(it, expr, env):
    it.steps += 1
    record = expr.record
    record = _EXPR[type(record)](it, record, env)
    if type(record) is not Record or expr.field not in record.fields:
        raise _field_error(record, expr, "access")
    return record.fields[expr.field]


def _record_lit(it, expr, env):
    it.steps += 1
    return Record({k: _EXPR[type(v)](it, v, env) for k, v in expr.fields})


def _func_ref(it, expr, env):
    it.steps += 1
    ref = FuncRefV(expr.name)
    it._resolve_ref(ref, expr)
    return ref


def _func_lit(it, expr, env):
    it.steps += 1
    return Closure(expr.params, expr.body, env)


_EXPR = {
    IntLit: _literal,
    BoolLit: _literal,
    NullLit: _null,
    Var: _var,
    Binary: _binary,
    Unary: _unary,
    Call: _call,
    NextCall: _next_call,
    FieldGet: _field_get,
    RecordLit: _record_lit,
    FuncRef: _func_ref,
    FuncLit: _func_lit,
}


# -- public entry points ----------------------------------------------------


def interp_native(program: Program, step_budget: int = DEFAULT_STEP_BUDGET):
    """Run a program that may contain generators; returns the list of
    printed values (the ProgramOutput)."""
    return Interpreter(program, step_budget).run()


def interp(program: Program, step_budget: int = DEFAULT_STEP_BUDGET):
    """Run a generator-free program (lowered or first-order form)."""
    for decl in program.decls:
        if decl.is_generator:
            raise ValidationError(f"generator {decl.name!r} in a lowered program")
    return Interpreter(program, step_budget).run()


def resume_any(interp_: Interpreter, instance, value):
    """Resume whatever a generator became in some form: a native instance,
    a state-machine closure, or a first-order record ({env, fn})."""
    if isinstance(instance, (GenInstance, Closure)):
        return interp_.next_value(instance, value)
    if (
        isinstance(instance, Record)
        and "fn" in instance.fields
        and "env" in instance.fields
    ):
        return interp_.call(
            instance.fields["fn"], [instance.fields["env"], value]
        )
    raise InterpError("value cannot be resumed")


def resume_sequence(
    program: Program,
    gen_name: str,
    args,
    resume_values,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> list:
    """The caller-observable protocol: the raw result of every `next`,
    one per resume value, with no early stop (a finished native instance
    keeps producing null exactly like an exhausted state machine). This
    is the unit the differential oracle compares across forms."""
    interp_ = Interpreter(program, step_budget)
    instance = interp_.call(interp_.globals.lookup(gen_name), list(args))
    return trace_instance(interp_, instance, resume_values)


def trace_instance(interp_: Interpreter, instance, resume_values) -> list:
    """Resume `instance` once per resume value and return the results. A
    runtime error is re-raised with the index of the resumption that
    raised it. resume_sequence traces through here."""
    results = []
    for index, value in enumerate(resume_values):
        try:
            results.append(resume_any(interp_, instance, value))
        except (InterpError, RecursionError) as caught:
            err = interp_._exhausted() if interp_.steps > interp_.step_budget else caught
            if type(err) is RecursionError:
                raise
            raise type(err)(f"resumption {index}: {err.message}", err.line, err.col) from err
    return results
