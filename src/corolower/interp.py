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

Evaluation looks each node's class up in `_EXPR` or `_STMT` and calls
the handler found there, which charges the node's step before anything
else: one step per evaluated expression, per executed statement and per
further `while` iteration. A node costs at most one Python frame, its
handler's, and a leaf none where its parent reads it in place: a `Var`
or `IntLit` operand of a binary operator, argument of a call or value of
`let`, assignment, `return` or `yield`, and a `Var` callee, generator of
`next` or record of `v.f` and `v.f = e`, where an integer could only
raise. The parent charges the leaf's step where its handler would and
raises `_var`'s error at an unbound `Var`. `+`, `-` and `*` on two
integers are Python's (`_INT_OPS`), wrapped only outside 64 bits. `if`
and `while` compare their tests with `True` and `False` in place, and
argument lists and records are built by loops, not comprehensions.
Function bodies run in one of two ways:

- `Interpreter.call` runs a plain body's statements itself, as `_if`,
  `_switch` and `_while` run their blocks', so one call costs one frame.
- `_exec_gen` is the Python generator behind a generator instance. It
  handles `yield`, `let x = yield`, `if` and `while` itself, and hands
  every other statement to `_STMT`; validation keeps `switch` out of a
  generator's body. It returns None when the body falls off its end and
  `(value,)` on `return`.

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

A state machine selects its state with one lookup. A machine of more
than four states, or an optimized one of four (transform.CHAIN_MAX),
dispatches through a `switch` and a smaller one through an `_i == k`
chain. The machine's dispatch loop, a `while (true)` whose one statement
is a switch or a chain that selects on a variable or a field of one,
carries its jump table (`dispatch`, see syntax.While): for each integer,
the block it reaches and the steps the switch or the chain's tests
charge on the way, the sink 0 and values no test matches included.
`_while` reads the selector in place without charging a step and, for an
integer, charges `true` and those steps at once and runs the block. Such
tests cannot raise, so outputs, steps and errors are exact. Any other
value (null, a boolean, a record, an unbound name, a missing field) runs
the loop's statement through `_if` or `_switch`, step by step, as does a
switch or a chain outside such a loop, like the switch of a machine with
no jump back into its dispatch, which needs no loop.

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


def _unbound(var):
    """Raise _var's error, ending a walk: `scope = scope.parent or _unbound(var)`."""
    raise _err(f"unbound name {var.name!r}", var)


def _not_int(v, node):
    return _err(f"expected an integer, got {_shown(v)}", node)


def _bool(v, node) -> bool:
    if v is True or v is False:
        return v
    raise _not_bool(v, node)


def _not_bool(v, node):
    return _err(f"expected a boolean, got {_shown(v)}", node)


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
    # Ints, booleans and null first: diff renders every printed value.
    if v is NULL:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Record):
        # From a stack, not by recursion, so depth costs no Python frames.
        # A str there is text and a tuple ends the record in it, which is
        # open till then: one met open again contains itself.
        out, todo, opened = [], [v], set()
        while todo:
            v = todo.pop()
            if type(v) is tuple:
                opened.remove(id(v[0]))
                out.append(" }")
            elif type(v) is not Record:
                out.append(v if type(v) is str else render_value(v))
            elif id(v) in opened:
                raise InterpError("cannot render a record that contains itself")
            elif not v.fields:
                out.append("{}")
            else:
                opened.add(id(v))
                todo.append((v,))
                for k, x in reversed(v.fields.items()):
                    todo += (x, f", {k}: ")
                todo[-1] = "{ " + todo[-1][2:]
        return "".join(out)
    if isinstance(v, FuncRefV):
        return f"&{v.name}"
    if isinstance(v, GenInstance):
        return f"<generator {v.name or 'fn'}>"
    if isinstance(v, Closure):
        return f"<fn {v.name}>" if v.name else "<fn>"
    raise AssertionError(f"unrenderable value {v!r}")


def _shown(v) -> str:
    """v as an error message shows it: rendered, or named if it is a
    record that contains itself, which has no rendering."""
    try:
        return render_value(v)
    except InterpError:
        return "a record that contains itself"


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
            raise _err(f"value {_shown(fn)} is not callable", node)
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
        raise _err(f"next on non-resumable value {_shown(target)}", node)

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
# node's step, or a leaf's that it reads in place. Statement handlers
# return None, or the `(value,)` of a `return` for the executor to pass up.


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
            truth = _EXPR[type(cond)](it, cond, env)
            if truth is True:
                block = stmt.then
            elif truth is False:
                block = stmt.orelse
            else:
                raise _not_bool(truth, cond)
            if block is not None:
                result = yield from _exec_gen(it, block.stmts, env)
                if result is not None:
                    return result
        elif kind is While:
            cond, body = stmt.cond, stmt.body.stmts
            forever = type(cond) is BoolLit and cond.value is True  # as in _while
            while forever or (truth := _EXPR[type(cond)](it, cond, env)) is True:
                if forever:
                    it.steps += 1
                result = yield from _exec_gen(it, body, env)
                if result is not None:
                    return result
                it.steps += 1
                if it.steps > it.step_budget:
                    raise it._exhausted()
            if truth is not False:
                raise _not_bool(truth, cond)
        else:
            value = stmt.value
            if type(value) is Var:
                it.steps += 1
                scope = env
                while value.name not in scope.vars:
                    scope = scope.parent or _unbound(value)
                value = scope.vars[value.name]
            elif type(value) is IntLit:
                it.steps += 1
                value = value.value
            else:
                value = _EXPR[type(value)](it, value, env)
            received = yield value
            if kind is LetYield:
                env.vars[stmt.name] = received
    return None


# The statements that `_exec_gen` runs itself, because they may yield.
_GEN_KINDS = frozenset({If, While, YieldStmt, LetYield})


# -- statements -----------------------------------------------------------------


def _assign(it, stmt, env):
    it.steps += 1
    value = stmt.value
    if type(value) is Var:
        it.steps += 1
        scope = env
        while value.name not in scope.vars:
            scope = scope.parent or _unbound(value)
        value = scope.vars[value.name]
    elif type(value) is IntLit:
        it.steps += 1
        value = value.value
    else:
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
    for inner in block.stmts:
        result = _STMT[type(inner)](it, inner, env)
        if result is not None:
            return result
    return None


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
    for inner in block.stmts:
        result = _STMT[type(inner)](it, inner, env)
        if result is not None:
            return result
    return None


def _while(it, stmt, env):
    it.steps += 1
    cond, body = stmt.cond, stmt.body.stmts
    forever = type(cond) is BoolLit and cond.value is True
    dispatch = stmt.dispatch
    if dispatch is not None:
        name, field, table, other = dispatch
    while forever or (truth := _EXPR[type(cond)](it, cond, env)) is True:
        stmts = body
        if forever:
            it.steps += 1
            if dispatch is not None:
                scope = env
                while scope.parent is not None and name not in scope.vars:
                    scope = scope.parent
                value = scope.vars.get(name)  # None when the name is unbound
                if field is not None:
                    value = value.fields.get(field) if type(value) is Record else None
                if type(value) is int:  # a bool would find the arm of 0 or 1
                    block, steps = table.get(value, other)
                    it.steps += steps
                    stmts = () if block is None else block.stmts
        for inner in stmts:
            result = _STMT[type(inner)](it, inner, env)
            if result is not None:
                return result
        it.steps += 1
        if it.steps > it.step_budget:
            raise it._exhausted()
    if truth is not False:
        raise _not_bool(truth, cond)
    return None


def _return(it, stmt, env):
    it.steps += 1
    value = stmt.value
    if value is None:
        return (NULL,)
    if type(value) is Var:
        it.steps += 1
        while value.name not in env.vars:
            env = env.parent or _unbound(value)
        return (env.vars[value.name],)
    if type(value) is IntLit:
        it.steps += 1
        return (value.value,)
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
    record, value = stmt.record, stmt.value
    if type(record) is Var:
        # v.f = e reads v in place; e is evaluated in env after the walk.
        it.steps += 2
        scope = env
        while record.name not in scope.vars:
            scope = scope.parent or _unbound(record)
        record = scope.vars[record.name]
    else:
        it.steps += 1
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
    while expr.name not in env.vars:
        env = env.parent or _unbound(expr)
    return env.vars[expr.name]


def _binary(it, expr, env):
    it.steps += 1
    op, lhs, rhs = expr.op, expr.lhs, expr.rhs
    if type(lhs) is Var:
        it.steps += 1
        scope = env
        while lhs.name not in scope.vars:
            scope = scope.parent or _unbound(lhs)
        a = scope.vars[lhs.name]
    elif type(lhs) is IntLit:
        it.steps += 1
        a = lhs.value
    else:
        a = _EXPR[type(lhs)](it, lhs, env)
    if op in _SHORT_CIRCUIT:
        # The lhs decides `&&` when false and `||` when true.
        if _bool(a, lhs) is _SHORT_CIRCUIT[op]:
            return a
        return _bool(_EXPR[type(rhs)](it, rhs, env), rhs)
    if type(rhs) is Var:
        it.steps += 1
        while rhs.name not in env.vars:
            env = env.parent or _unbound(rhs)
        b = env.vars[rhs.name]
    elif type(rhs) is IntLit:
        it.steps += 1
        b = rhs.value
    else:
        b = _EXPR[type(rhs)](it, rhs, env)
    if type(a) is int and type(b) is int:
        try:
            value = _INT_OPS[op](a, b)
        except ZeroDivisionError:
            raise _err(_BY_ZERO[op], expr) from None
        # A comparison's bool is always in range; only + - * can leave it.
        if _INT_MIN <= value <= _INT_MAX:
            return value
        return wrap64(value)
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
# On two integers `==` and `!=` agree with values_equal. `_binary` wraps
# a result outside 64 bits; `_div` and `_mod` wrap their own.
_INT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
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
    fn = expr.callee
    if type(fn) is Var:
        it.steps += 1
        scope = env
        while fn.name not in scope.vars:
            scope = scope.parent or _unbound(fn)
        fn = scope.vars[fn.name]
    else:
        fn = _EXPR[type(fn)](it, fn, env)
    # A loop, not a comprehension, which would cost a Python frame.
    args = []
    for arg in expr.args:
        if type(arg) is Var:
            it.steps += 1
            scope = env
            while arg.name not in scope.vars:
                scope = scope.parent or _unbound(arg)
            args.append(scope.vars[arg.name])
        elif type(arg) is IntLit:
            it.steps += 1
            args.append(arg.value)
        else:
            args.append(_EXPR[type(arg)](it, arg, env))
    return it.call(fn, args, expr)


def _next_call(it, expr, env):
    it.steps += 1
    gen, arg = expr.gen, expr.arg
    if type(gen) is Var:
        it.steps += 1
        scope = env
        while gen.name not in scope.vars:
            scope = scope.parent or _unbound(gen)
        target = scope.vars[gen.name]
    else:
        target = _EXPR[type(gen)](it, gen, env)
    value = NULL if arg is None else _EXPR[type(arg)](it, arg, env)
    return it.next_value(target, value, expr)


def _field_get(it, expr, env):
    record = expr.record
    if type(record) is Var:
        # v.f reads v in place, charging both steps before the lookup.
        it.steps += 2
        while record.name not in env.vars:
            env = env.parent or _unbound(record)
        record = env.vars[record.name]
    else:
        it.steps += 1
        record = _EXPR[type(record)](it, record, env)
    if type(record) is not Record or expr.field not in record.fields:
        raise _field_error(record, expr, "access")
    return record.fields[expr.field]


def _record_lit(it, expr, env):
    it.steps += 1
    fields = {}
    for name, value in expr.fields:
        fields[name] = _EXPR[type(value)](it, value, env)
    return Record(fields)


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
