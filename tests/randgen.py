"""Seeded random well-formed programs for the parse/print round-trip.

Generated programs are valid (yields confined to generators, switches
kept out of them, unique names, a zero-parameter main) but need not be
runnable. Two grammar
hazards are avoided on purpose, matching the canonical style: no
statement after a return in the same block, and no expression statement
starting with `(` or `-` (the separator-free grammar would glue it onto
a preceding expression).
"""

import random

from corolower.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
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
    Switch,
    Unary,
    Var,
    While,
    YieldStmt,
)

_BINOPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
_NAMES = ["a", "b", "c", "x", "y", "z", "acc", "tmp", "value", "flag"]
_FIELDS = ["left", "right", "size", "tag"]


class _Gen:
    def __init__(self, rng: random.Random, fn_names: list[str]):
        self.rng = rng
        self.fn_names = fn_names

    def expr(self, depth: int):
        rng = self.rng
        if depth <= 0:
            return rng.choice(
                [
                    IntLit(rng.randrange(0, 100)),
                    BoolLit(rng.random() < 0.5),
                    NullLit(),
                    Var(rng.choice(_NAMES)),
                ]
            )
        kind = rng.randrange(10)
        if kind < 3:
            return Binary(
                rng.choice(_BINOPS), self.expr(depth - 1), self.expr(depth - 1)
            )
        if kind == 3:
            return Unary(rng.choice(["-", "!"]), self.expr(depth - 1))
        if kind == 4:
            return Call(
                Var(rng.choice(self.fn_names)),
                [self.expr(depth - 1) for _ in range(rng.randrange(0, 3))],
            )
        if kind == 5:
            arg = self.expr(depth - 1) if rng.random() < 0.5 else None
            return NextCall(self.expr(depth - 1), arg)
        if kind == 6:
            return FieldGet(self.expr(depth - 1), rng.choice(_FIELDS))
        if kind == 7:
            names = rng.sample(_FIELDS, rng.randrange(0, len(_FIELDS)))
            return RecordLit([(n, self.expr(depth - 1)) for n in names])
        if kind == 8:
            return FuncRef(rng.choice(self.fn_names))
        params = rng.sample(_NAMES, rng.randrange(0, 3))
        return FuncLit(params, self.block(depth - 1, in_generator=False, max_stmts=2))

    def stmt(self, depth: int, in_generator: bool):
        rng = self.rng
        choices = ["let", "assign", "print", "exprstmt", "fieldset"]
        if depth > 0:
            choices += ["if", "while"]
        if in_generator:
            choices += ["yield", "letyield"]
        elif depth > 0:
            choices += ["switch"]
        kind = rng.choice(choices)
        if kind == "let":
            return Let(rng.choice(_NAMES), self.expr(depth))
        if kind == "assign":
            return Assign(rng.choice(_NAMES), self.expr(depth))
        if kind == "print":
            return Print(self.expr(depth))
        if kind == "exprstmt":
            # Identifier-leading forms only; see module docstring.
            return ExprStmt(
                Call(Var(rng.choice(self.fn_names)), [self.expr(depth - 1)])
                if rng.random() < 0.5
                else NextCall(Var(rng.choice(_NAMES)), None)
            )
        if kind == "fieldset":
            return FieldSet(
                Var(rng.choice(_NAMES)), rng.choice(_FIELDS), self.expr(depth)
            )
        if kind == "if":
            orelse = (
                self.block(depth - 1, in_generator)
                if rng.random() < 0.5
                else None
            )
            return If(self.expr(depth - 1), self.block(depth - 1, in_generator), orelse)
        if kind == "while":
            return While(self.expr(depth - 1), self.block(depth - 1, in_generator))
        if kind == "switch":
            labels = rng.sample(range(10), rng.randrange(1, 4))
            cases = [(k, self.block(depth - 1, False)) for k in labels]
            orelse = self.block(depth - 1, False) if rng.random() < 0.5 else None
            return Switch(self.expr(depth - 1), cases, orelse)
        if kind == "yield":
            return YieldStmt(self.expr(depth))
        return LetYield(rng.choice(_NAMES), self.expr(depth))

    def block(self, depth: int, in_generator: bool, max_stmts: int = 4) -> Block:
        rng = self.rng
        stmts = [
            self.stmt(depth, in_generator) for _ in range(rng.randrange(0, max_stmts))
        ]
        if rng.random() < 0.3:
            value = self.expr(depth) if rng.random() < 0.7 else None
            stmts.append(Return(value))  # returns only close a block
        return Block(stmts)


def random_program(seed: int) -> Program:
    rng = random.Random(seed)
    extra = rng.randrange(0, 3)
    fn_names = ["main"] + [f"helper{i}" for i in range(extra)]
    gen = _Gen(rng, fn_names)
    decls = [FuncDecl("main", [], False, gen.block(2, in_generator=False))]
    for i in range(extra):
        is_generator = rng.random() < 0.5
        params = rng.sample(_NAMES, rng.randrange(0, 3))
        decls.append(
            FuncDecl(f"helper{i}", params, is_generator, gen.block(2, is_generator))
        )
    return Program(decls)
