"""Canonical source rendering: 2-space indent, one statement per line,
`fn*` for generators, parentheses only where precedence demands them.
parse(lex(print_source(p))) reproduces p structurally.
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
    return _stmt_lines(stmt, indent)


def _decl(decl: FuncDecl) -> str:
    star = "*" if decl.is_generator else ""
    header = f"fn{star} {decl.name}({', '.join(decl.params)}) {{"
    lines = [header]
    lines.extend(_block_lines(decl.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _block_lines(block: Block, indent: int) -> list[str]:
    lines: list[str] = []
    for stmt in block.stmts:
        lines.extend(_stmt_lines(stmt, indent))
    return lines


def _stmt_lines(stmt: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Let):
        return [f"{pad}let {stmt.name} = {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, LetYield):
        return [f"{pad}let {stmt.name} = yield {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.name} = {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, YieldStmt):
        return [f"{pad}yield {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, FieldSet):
        target = f"{_expr(stmt.record, _POSTFIX_PRECEDENCE, indent)}.{stmt.field}"
        return [f"{pad}{target} = {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({_expr(stmt.cond, 1, indent)}) {{"]
        lines.extend(_block_lines(stmt.then, indent + 1))
        if stmt.orelse is not None:
            lines.append(f"{pad}}} else {{")
            lines.extend(_block_lines(stmt.orelse, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({_expr(stmt.cond, 1, indent)}) {{"]
        lines.extend(_block_lines(stmt.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return"]
        return [f"{pad}return {_expr(stmt.value, 1, indent)}"]
    if isinstance(stmt, Print):
        return [f"{pad}print({_expr(stmt.value, 1, indent)})"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{_expr(stmt.value, 1, indent)}"]
    raise AssertionError(f"unhandled statement {stmt!r}")


def _expr(expr: Expr, prec: int, indent: int) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, FuncRef):
        return f"&{expr.name}"
    if isinstance(expr, Binary):
        p = BINARY_PRECEDENCE[expr.op]
        text = (
            f"{_expr(expr.lhs, p, indent)} {expr.op} {_expr(expr.rhs, p + 1, indent)}"
        )
        return f"({text})" if p < prec else text
    if isinstance(expr, Unary):
        text = f"{expr.op}{_expr(expr.operand, _UNARY_PRECEDENCE, indent)}"
        return f"({text})" if _UNARY_PRECEDENCE < prec else text
    if isinstance(expr, Call):
        callee = _expr(expr.callee, _POSTFIX_PRECEDENCE, indent)
        args = ", ".join(_expr(a, 1, indent) for a in expr.args)
        return f"{callee}({args})"
    if isinstance(expr, NextCall):
        gen = _expr(expr.gen, 1, indent)
        if expr.arg is None:
            return f"next({gen})"
        return f"next({gen}, {_expr(expr.arg, 1, indent)})"
    if isinstance(expr, FieldGet):
        return f"{_expr(expr.record, _POSTFIX_PRECEDENCE, indent)}.{expr.field}"
    if isinstance(expr, RecordLit):
        if not expr.fields:
            return "{}"
        parts = ", ".join(f"{k}: {_expr(v, 1, indent)}" for k, v in expr.fields)
        return f"{{ {parts} }}"
    if isinstance(expr, FuncLit):
        pad = "  " * indent
        lines = [f"fn ({', '.join(expr.params)}) {{"]
        lines.extend(_block_lines(expr.body, indent + 1))
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    raise AssertionError(f"unhandled expression {expr!r}")
