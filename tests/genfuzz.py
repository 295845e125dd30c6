"""Seeded random *runnable* generators for differential fuzzing.

Every program terminates and stays type-correct by construction: loop
counters bound every while, arithmetic avoids division, receivers are
only ever bound from resumptions that feed integers, and conditions are
comparisons. The shapes still cover the interesting space: nested
loops/branches, yields in arms, receivers, early returns, constant
branches. closure_generator_program adds a closure that reads every
local after the generator has moved on."""

import random

from corolower.syntax import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    FuncDecl,
    FuncLit,
    If,
    IntLit,
    Let,
    LetYield,
    NextCall,
    Print,
    Program,
    RecordLit,
    Return,
    Unary,
    Var,
    While,
    YieldStmt,
    declared_locals,
)


class _GenFuzz:
    def __init__(self, rng: random.Random, params: list[str], arm_yields: bool):
        self.rng = rng
        self.vars = list(params) + ["v0", "v1"]
        self.loops = 0
        self.arm_yields = arm_yields

    def int_expr(self, depth=2):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            if self.vars and rng.random() < 0.6:
                return Var(rng.choice(self.vars))
            return IntLit(rng.randrange(0, 20))
        op = rng.choice(["+", "-", "*"])
        node = Binary(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
        if rng.random() < 0.15:
            return Unary("-", node)
        return node

    def cond(self):
        rng = self.rng
        if rng.random() < 0.15:
            return BoolLit(rng.random() < 0.5)
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return Binary(op, self.int_expr(1), self.int_expr(1))

    def scoped(self, depth, budget) -> Block:
        # Receivers bound inside a nested block must not leak to code that
        # can run without passing the binding (they would read as null).
        saved = list(self.vars)
        block = Block(self.stmts(depth, budget))
        self.vars = saved
        return block

    def arm(self, depth, budget) -> Block:
        if self.arm_yields:
            return self.scoped(depth, budget)
        # Assignments and prints only, so the optimized CFG keeps the `if`
        # whole, or only its taken arm when its test is a literal.
        rng = self.rng
        return Block([
            Assign(rng.choice(self.vars), self.int_expr())
            if rng.random() < 0.75
            else Print(self.int_expr())
            for _ in range(rng.randrange(1, 4))
        ])

    def stmts(self, depth, budget):
        rng = self.rng
        out = []
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.30:
                out.append(YieldStmt(self.int_expr()))
            elif roll < 0.42:
                name = f"r{len(self.vars)}"
                out.append(LetYield(name, self.int_expr()))
                # Resume scripts feed integers, so within this statement
                # list the receiver is int-valued from here on.
                self.vars.append(name)
            elif roll < 0.62 and (self.arm_yields or depth == 0):
                out.append(Assign(rng.choice(self.vars), self.int_expr()))
            elif roll < 0.72 and depth > 0:
                # Without arm yields, an if/else takes the share of the
                # assignment above too, so more programs keep an `if` whole.
                cond = self.cond()
                then = self.arm(depth - 1, budget)
                orelse = self.arm(depth - 1, budget) if rng.random() < 0.6 else None
                out.append(If(cond, then, orelse))
            elif roll < 0.82 and depth > 0 and budget > 0:
                counter = f"w{self.loops}"
                self.loops += 1
                limit = rng.randrange(1, 4)
                body = self.scoped(depth - 1, budget - 1)
                if not body.stmts or not isinstance(body.stmts[-1], Return):
                    # A trailing return exits the loop anyway; anything else
                    # must bump the counter so the loop is bounded.
                    body.stmts.append(
                        Assign(counter, Binary("+", Var(counter), IntLit(1)))
                    )
                out.append(Let(counter, IntLit(0)))
                out.append(While(Binary("<", Var(counter), IntLit(limit)), body))
            elif roll < 0.9:
                out.append(Print(self.int_expr()))
            else:
                out.append(Return(self.int_expr() if rng.random() < 0.7 else None))
                return out  # nothing after a return in this block
        return out


def random_generator_program(
    seed: int, arm_yields: bool = True
) -> tuple[Program, str, int]:
    """A program holding one random generator plus an empty main; returns
    (program, generator name, arity). Without `arm_yields`, the same seed
    draws a generator whose `if` arms hold only assignments and prints,
    and whose body ends in a yield, so that the optimized CFG keeps most
    of its `if` statements whole."""
    rng = random.Random(seed)
    arity = rng.randrange(0, 3)
    params = [f"p{i}" for i in range(arity)]
    fuzz = _GenFuzz(rng, params, arm_yields)
    body = [Let("v0", IntLit(rng.randrange(0, 10))), Let("v1", self_init(rng, params))]
    body += fuzz.stmts(depth=2, budget=2)
    if not arm_yields:
        body.append(YieldStmt(Var("v0")))
    decls = [
        FuncDecl("gen", params, True, Block(body)),
        FuncDecl("main", [], False, Block([])),
    ]
    return Program(decls), "gen", arity


def closure_generator_program(seed: int) -> Program:
    """A program whose generator first yields a closure that returns a
    record of every local, then runs a random body with yields in arms
    and loops and ends in a let-yield: on its own, as an `if` arm or in a
    loop. Its main resumes the generator 30 times with 1, 2, ...,
    printing each result and then what the closure reads, so a receiver
    binding that a form drops shows in the output even after the
    generator has finished. The first-order form rejects the closure."""
    rng = random.Random(seed)
    arity = rng.randrange(0, 3)
    params = [f"p{i}" for i in range(arity)]
    fuzz = _GenFuzz(rng, params, arm_yields=True)
    body = [Let("v0", IntLit(rng.randrange(0, 10))), Let("v1", self_init(rng, params))]
    body += fuzz.stmts(depth=2, budget=2)
    last = LetYield("last", fuzz.int_expr())
    shape = rng.randrange(3)
    if shape == 0:
        body.append(last)
    elif shape == 1:  # in an arm, the join finishing
        orelse = Block([YieldStmt(fuzz.int_expr())]) if rng.random() < 0.5 else None
        body.append(If(fuzz.cond(), Block([last]), orelse))
    else:  # in a loop, the body running on after it or returning
        bump = Assign("wl", Binary("+", Var("wl"), IntLit(1)))
        after = [Return(None)] if rng.random() < 0.5 else []
        loop = While(Binary("<", Var("wl"), IntLit(rng.randrange(1, 4))), Block([bump, last] + after))
        body += [Let("wl", IntLit(0)), loop]
    fields = [(name, Var(name)) for name in params + declared_locals(Block(body))]
    reads = Let("f", FuncLit([], Block([Return(RecordLit(fields))])))
    gen = FuncDecl("gen", params, True, Block(body[:2] + [reads, YieldStmt(Var("f"))] + body[2:]))
    step = Block([
        Print(NextCall(Var("it"), Var("k"))),
        Print(Call(Var("f"), [])),
        Assign("k", Binary("+", Var("k"), IntLit(1))),
    ])
    main = FuncDecl("main", [], False, Block([
        Let("it", Call(Var("gen"), [IntLit(k) for k in range(1, arity + 1)])),
        Let("f", NextCall(Var("it"))),
        Let("k", IntLit(1)),
        While(Binary("<=", Var("k"), IntLit(30)), step),
    ]))
    return Program([gen, main])


def self_init(rng, params):
    if params and rng.random() < 0.5:
        return Var(rng.choice(params))
    return IntLit(rng.randrange(0, 10))
