"""Canonical source rendering: 2-space indent, one statement per line,
`fn*` for generators, parentheses only where precedence demands them.
parse(lex(print_source(p))) reproduces p structurally.

Each node's class is looked up in a table, as in the interpreter: `_EXPR`
gives a handler of (node, the least precedence that needs no parentheses,
indent level) returning text, `_STMT` one of (node, indent string, indent
level) returning lines.
"""

from __future__ import annotations

from .parser import BINARY_PRECEDENCE
from .syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FieldGet,
    FieldSet,
    FuncDecl,
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
    Stmt,
    Switch,
    Unary,
    Var,
    While,
    YieldStmt,
)

_UNARY_PRECEDENCE = 7
_POSTFIX_PRECEDENCE = 8


def print_source(program: Program) -> str:
    return "\n".join(_decl(d) for d in program.decls)


def expr_source(expr: Expr, indent: int = 0) -> str:
    """Render a single expression (used for CFG labels and diagnostics)."""
    return _expr(expr, 1, indent)


def stmt_lines(stmt: Stmt, indent: int = 0) -> list[str]:
    """Render one statement as its source lines."""
    return _STMT[type(stmt)](stmt, "  " * indent, indent)


def _decl(decl: FuncDecl) -> str:
    star = "*" if decl.is_generator else ""
    header = f"fn{star} {decl.name}({', '.join(decl.params)}) {{"
    return "\n".join([header, *_block_lines(decl.body, 1), "}"]) + "\n"


def _block_lines(block: Block, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for stmt in block.stmts:
        lines.extend(_STMT[type(stmt)](stmt, pad, indent))
    return lines


def _expr(expr: Expr, prec: int, indent: int) -> str:
    return _EXPR[type(expr)](expr, prec, indent)


def _if(stmt, pad, indent):
    lines = [f"{pad}if ({_expr(stmt.cond, 1, indent)}) {{", *_block_lines(stmt.then, indent + 1)]
    if stmt.orelse is not None:
        lines += [f"{pad}}} else {{", *_block_lines(stmt.orelse, indent + 1)]
    return lines + [f"{pad}}}"]


def _switch(stmt, pad, indent):
    # Each body sits at the switch's own indent: a machine's states are its
    # cases, so the lowering prints a state's lines no deeper at any size.
    head = f"{pad}switch ({_expr(stmt.subject, 1, indent)}) "
    lines = []
    for label, block in stmt.cases:
        lines += [f"{head}case {label} {{", *_block_lines(block, indent)]
        head = f"{pad}}} "
    if stmt.orelse is not None:
        lines += [f"{pad}}} else {{", *_block_lines(stmt.orelse, indent)]
    return lines + [f"{pad}}}"]


def _while(stmt, pad, indent):
    head = f"{pad}while ({_expr(stmt.cond, 1, indent)}) {{"
    return [head, *_block_lines(stmt.body, indent + 1), f"{pad}}}"]


def _field_set(stmt, pad, indent):
    target = f"{_expr(stmt.record, _POSTFIX_PRECEDENCE, indent)}.{stmt.field}"
    return [f"{pad}{target} = {_expr(stmt.value, 1, indent)}"]


_STMT = {
    Let: lambda s, pad, i: [f"{pad}let {s.name} = {_expr(s.value, 1, i)}"],
    LetYield: lambda s, pad, i: [f"{pad}let {s.name} = yield {_expr(s.value, 1, i)}"],
    Assign: lambda s, pad, i: [f"{pad}{s.name} = {_expr(s.value, 1, i)}"],
    YieldStmt: lambda s, pad, i: [f"{pad}yield {_expr(s.value, 1, i)}"],
    FieldSet: _field_set,
    If: _if,
    Switch: _switch,
    While: _while,
    Return: lambda s, pad, i: [
        f"{pad}return" if s.value is None else f"{pad}return {_expr(s.value, 1, i)}"
    ],
    Print: lambda s, pad, i: [f"{pad}print({_expr(s.value, 1, i)})"],
    ExprStmt: lambda s, pad, i: [f"{pad}{_expr(s.value, 1, i)}"],
}


def _binary(expr, prec, indent):
    p = BINARY_PRECEDENCE[expr.op]
    lhs = expr.lhs
    if type(lhs) is Binary and BINARY_PRECEDENCE[lhs.op] == p:
        # A left-leaning chain of one precedence, `a + b - c`, needs no
        # parentheses inside and is printed in a loop, as the parser reads
        # it, so a long one costs no Python frames.
        tails = []
        while type(lhs) is Binary and BINARY_PRECEDENCE[lhs.op] == p:
            tails.append(f" {lhs.op} {_expr(lhs.rhs, p + 1, indent)}")
            lhs = lhs.lhs
        left = _expr(lhs, p, indent) + "".join(reversed(tails))
    else:
        left = _expr(lhs, p, indent)
    text = f"{left} {expr.op} {_expr(expr.rhs, p + 1, indent)}"
    return f"({text})" if p < prec else text


def _unary(expr, prec, indent):
    text = f"{expr.op}{_expr(expr.operand, _UNARY_PRECEDENCE, indent)}"
    return f"({text})" if _UNARY_PRECEDENCE < prec else text


def _call(expr, prec, indent):
    args = ", ".join(_expr(a, 1, indent) for a in expr.args)
    return f"{_expr(expr.callee, _POSTFIX_PRECEDENCE, indent)}({args})"


def _next_call(expr, prec, indent):
    args = [expr.gen] if expr.arg is None else [expr.gen, expr.arg]
    return f"next({', '.join(_expr(a, 1, indent) for a in args)})"


def _record_lit(expr, prec, indent):
    if not expr.fields:
        return "{}"
    parts = ", ".join(f"{k}: {_expr(v, 1, indent)}" for k, v in expr.fields)
    return f"{{ {parts} }}"


def _func_lit(expr, prec, indent):
    lines = [f"fn ({', '.join(expr.params)}) {{", *_block_lines(expr.body, indent + 1)]
    return "\n".join(lines + [f"{'  ' * indent}}}"])


_EXPR = {
    IntLit: lambda e, prec, i: str(e.value),
    BoolLit: lambda e, prec, i: "true" if e.value else "false",
    NullLit: lambda e, prec, i: "null",
    Var: lambda e, prec, i: e.name,
    FuncRef: lambda e, prec, i: f"&{e.name}",
    Binary: _binary,
    Unary: _unary,
    Call: _call,
    NextCall: _next_call,
    FieldGet: lambda e, prec, i: f"{_expr(e.record, _POSTFIX_PRECEDENCE, i)}.{e.field}",
    RecordLit: _record_lit,
    FuncLit: _func_lit,
}
