"""Recursive-descent parser and static validation.

The grammar has no statement separators; parsing is greedy, so the
canonical style keeps one statement per line and the printer guarantees
re-parseable output. Yield is legal only in statement position
(`yield e` / `let x = yield e`) and only inside `fn*` bodies; `switch`
only outside them.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .lexer import Token, lex
from .syntax import (
    CLOSURES,
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    ExprStmt,
    Expr,
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
    Node,
    NullLit,
    Pos,
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
    walk,
)

BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_UNARY_OPS = ("-", "!")

# Deepest nesting of blocks, expressions and unary operators the parser
# accepts. A level costs at most four Python frames here, and the later
# passes recurse on the statement and expression nesting as well, so this
# keeps every pass within Python's default recursion limit of 1,000.
MAX_NESTING = 150

# Tokens that may begin an expression; used to decide `return` vs `return e`.
_EXPR_START_KWS = frozenset(["true", "false", "null", "next", "fn"])
_EXPR_START_OPS = frozenset(["(", "{", "&", "-", "!"])


class _Tokens:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        # Levels of nesting open at the current token. Each recursive rule
        # adds one and checks it, then takes it off on the way out; a
        # parse that fails is abandoned, so no level needs unwinding.
        self.depth = 0

    def too_deep(self) -> ValidationError:
        tok = self.peek()
        return ValidationError(
            f"nesting too deep (more than {MAX_NESTING} levels)", tok.line, tok.col
        )

    # The current token is tokens[i]. The stream ends in its eof token,
    # which next and expect never step past, so i is always in range.

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind
            found = tok.text if tok.text else "end of input"
            raise ParseError(
                f"expected {wanted!r}, found {found!r}", tok.line, tok.col
            )
        self.i += 1  # never at eof: no rule expects one
        return tok


def _pos(tok: Token) -> Pos:
    # A token ends in its line and column; tuple.__new__ skips the
    # Python-level __new__ of a NamedTuple.
    return tuple.__new__(Pos, tok[2:])


def parse(tokens: list[Token]) -> Program:
    """Parse a whole token stream into a validated Program (entry: main)."""
    ts = _Tokens(tokens)
    decls = []
    while not ts.at("eof"):
        decls.append(_decl(ts))
    program = Program(decls)
    validate(program)
    return program


def parse_source(source: str) -> Program:
    return parse(lex(source))


def _decl(ts: _Tokens) -> FuncDecl:
    start = ts.expect("kw", "fn")
    is_generator = False
    if ts.at("op", "*"):
        ts.next()
        is_generator = True
    name = ts.expect("ident").text
    params = _params(ts)
    body = _block(ts)
    return FuncDecl(name, params, is_generator, body, pos=_pos(start))


def _params(ts: _Tokens) -> list[str]:
    ts.expect("op", "(")
    params = []
    if not ts.at("op", ")"):
        params.append(ts.expect("ident").text)
        while ts.at("op", ","):
            ts.next()
            params.append(ts.expect("ident").text)
    ts.expect("op", ")")
    return params


def _block(ts: _Tokens) -> Block:
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        raise ts.too_deep()
    start = ts.expect("op", "{")
    stmts = []
    while not ts.at("op", "}"):
        if ts.at("eof"):
            raise ParseError("expected '}'", ts.peek().line, ts.peek().col)
        stmts.append(_stmt(ts))
    ts.expect("op", "}")
    ts.depth -= 1
    return Block(stmts, pos=_pos(start))


def _stmt(ts: _Tokens) -> Stmt:
    tok = ts.peek()
    if tok.kind == "kw":
        if tok.text == "let":
            ts.next()
            name = ts.expect("ident").text
            ts.expect("op", "=")
            if ts.at("kw", "yield"):
                ts.next()
                return LetYield(name, _expr(ts), pos=_pos(tok))
            return Let(name, _expr(ts), pos=_pos(tok))
        if tok.text == "yield":
            ts.next()
            return YieldStmt(_expr(ts), pos=_pos(tok))
        if tok.text == "if":
            ts.next()
            ts.expect("op", "(")
            cond = _expr(ts)
            ts.expect("op", ")")
            then = _block(ts)
            orelse = None
            if ts.at("kw", "else"):
                ts.next()
                orelse = _block(ts)
            return If(cond, then, orelse, pos=_pos(tok))
        if tok.text == "switch":
            return _switch(ts)
        if tok.text == "while":
            ts.next()
            ts.expect("op", "(")
            cond = _expr(ts)
            ts.expect("op", ")")
            return While(cond, _block(ts), pos=_pos(tok))
        if tok.text == "return":
            ts.next()
            nxt = ts.peek()
            starts_expr = (
                nxt.kind in ("ident", "int")
                or (nxt.kind == "kw" and nxt.text in _EXPR_START_KWS)
                or (nxt.kind == "op" and nxt.text in _EXPR_START_OPS)
            )
            return Return(_expr(ts) if starts_expr else None, pos=_pos(tok))
        if tok.text == "print":
            ts.next()
            ts.expect("op", "(")
            value = _expr(ts)
            ts.expect("op", ")")
            return Print(value, pos=_pos(tok))
    # An identifier is not the eof token, so one follows it.
    if tok.kind == "ident" and ts.tokens[ts.i + 1].text == "=":
        ts.next()
        ts.next()
        return Assign(tok.text, _expr(ts), pos=_pos(tok))
    expr = _expr(ts)
    if ts.at("op", "="):
        eq = ts.next()
        if not isinstance(expr, FieldGet):
            raise ParseError("cannot assign to this expression", eq.line, eq.col)
        return FieldSet(expr.record, expr.field, _expr(ts), pos=_pos(tok))
    return ExprStmt(expr, pos=_pos(tok))


def _switch(ts: _Tokens) -> Switch:
    """`switch (e) case k { ... } ... else { ... }`: one case or more, each
    label a distinct integer literal, and an optional else."""
    tok = ts.next()
    ts.expect("op", "(")
    subject = _expr(ts)
    ts.expect("op", ")")
    cases: dict[int, Block] = {}
    while not cases or ts.at("kw", "case"):
        ts.expect("kw", "case")
        label = ts.expect("int")
        if int(label.text) in cases:
            raise ParseError(f"duplicate case label {label.text}", label.line, label.col)
        cases[int(label.text)] = _block(ts)
    orelse = None
    if ts.at("kw", "else"):
        ts.next()
        orelse = _block(ts)
    return Switch(subject, list(cases.items()), orelse, pos=_pos(tok))


def _expr(ts: _Tokens, min_prec: int = 1) -> Expr:
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        raise ts.too_deep()
    lhs = _unary(ts)
    while True:
        tok = ts.peek()
        prec = BINARY_PRECEDENCE.get(tok.text) if tok.kind == "op" else None
        if prec is None or prec < min_prec:
            ts.depth -= 1
            return lhs
        ts.next()
        rhs = _expr(ts, prec + 1)
        lhs = Binary(tok.text, lhs, rhs, pos=_pos(tok))


def _unary(ts: _Tokens) -> Expr:
    tok = ts.peek()
    if tok.kind == "op" and tok.text in _UNARY_OPS:
        ts.next()
        ts.depth += 1
        if ts.depth > MAX_NESTING:
            raise ts.too_deep()
        operand = _unary(ts)
        ts.depth -= 1
        return Unary(tok.text, operand, pos=_pos(tok))
    return _postfix(ts)


def _postfix(ts: _Tokens) -> Expr:
    expr = _primary(ts)
    while True:
        tok = ts.peek()
        if ts.at("op", "("):
            ts.next()
            args = []
            if not ts.at("op", ")"):
                args.append(_expr(ts))
                while ts.at("op", ","):
                    ts.next()
                    args.append(_expr(ts))
            ts.expect("op", ")")
            expr = Call(expr, args, pos=_pos(tok))
        elif ts.at("op", "."):
            ts.next()
            expr = FieldGet(expr, _field_name(ts), pos=_pos(tok))
        else:
            return expr


def _field_name(ts: _Tokens) -> str:
    # Keywords are legal field names (the first-order output uses `.fn`).
    tok = ts.peek()
    if tok.kind in ("ident", "kw"):
        ts.next()
        return tok.text
    raise ParseError(
        f"expected field name, found {tok.text!r}", tok.line, tok.col
    )


def _primary(ts: _Tokens) -> Expr:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return IntLit(int(tok.text), pos=_pos(tok))
    if tok.kind == "ident":
        ts.next()
        return Var(tok.text, pos=_pos(tok))
    if tok.kind == "kw":
        if tok.text == "true" or tok.text == "false":
            ts.next()
            return BoolLit(tok.text == "true", pos=_pos(tok))
        if tok.text == "null":
            ts.next()
            return NullLit(pos=_pos(tok))
        if tok.text == "next":
            ts.next()
            ts.expect("op", "(")
            gen = _expr(ts)
            arg = None
            if ts.at("op", ","):
                ts.next()
                arg = _expr(ts)
            ts.expect("op", ")")
            return NextCall(gen, arg, pos=_pos(tok))
        if tok.text == "fn":
            ts.next()
            params = _params(ts)
            body = _block(ts)
            return FuncLit(params, body, pos=_pos(tok))
    if ts.at("op", "("):
        ts.next()
        expr = _expr(ts)
        ts.expect("op", ")")
        return expr
    if ts.at("op", "{"):
        ts.next()
        fields: list[tuple[str, Expr]] = []
        if not ts.at("op", "}"):
            while True:
                name_tok = ts.peek()
                name = _field_name(ts)
                if any(name == seen for seen, _ in fields):
                    raise ParseError(
                        f"duplicate record field {name!r}",
                        name_tok.line,
                        name_tok.col,
                    )
                ts.expect("op", ":")
                fields.append((name, _expr(ts)))
                if not ts.at("op", ","):
                    break
                ts.next()
        ts.expect("op", "}")
        return RecordLit(fields, pos=_pos(tok))
    if ts.at("op", "&"):
        ts.next()
        name = ts.expect("ident").text
        return FuncRef(name, pos=_pos(tok))
    found = tok.text if tok.text else "end of input"
    raise ParseError(f"expected expression, found {found!r}", tok.line, tok.col)


# -- validation ---------------------------------------------------------------


def validate(program: Program) -> None:
    """Enforce static rules: unique function names, a zero-parameter
    non-generator entry, distinct parameters, yields confined to
    generator bodies (anonymous functions are never generators), and no
    switch in a generator's own body."""
    seen: set[str] = set()
    for decl in program.decls:
        if decl.name in seen:
            raise ValidationError(f"duplicate function name {decl.name!r}", *_at(decl))
        seen.add(decl.name)
    if program.entry not in seen:
        raise ValidationError(f"missing entry function {program.entry!r}")
    entry = next(d for d in program.decls if d.name == program.entry)
    if entry.is_generator:
        raise ValidationError(f"entry function {program.entry!r} is a generator")
    if entry.params:
        raise ValidationError(f"entry function {program.entry!r} takes parameters")
    for decl in program.decls:
        _check_function(decl, decl.is_generator)


def _check_function(func: FuncDecl | FuncLit, generator: bool) -> None:
    """Distinct parameters, no yield unless in a generator's body, and no
    switch in one. The walk stops at fn literals, each checked as its
    own function when met; nodes come in walk's order, so the first fault
    is raised."""
    if len(set(func.params)) != len(func.params):
        raise ValidationError("duplicate parameter name", *_at(func))
    for node in walk(func.body, CLOSURES):
        cls = type(node)
        if cls is FuncLit:
            _check_function(node, False)
        elif not generator and (cls is YieldStmt or cls is LetYield):
            raise ValidationError("yield outside a generator", *_at(node))
        elif generator and cls is Switch:
            # The lowerings split only `if` and `while` into blocks.
            raise ValidationError("switch inside a generator", *_at(node))


def _at(node: Node) -> tuple[int | None, int | None]:
    return node.pos or (None, None)
