"""corolower: generator coroutines lowered to closure state machines.

Pipeline: parse -> build_cfg/merge_blocks -> transform_program ->
defunctionalize, with a reference interpreter proving every stage
observationally equivalent to the original program.
"""

from .cfg import BasicBlock, Branch, Cfg, END, Finish, Goto, YieldTo, build_cfg, check_cfg, emit_dot, eval_cfg, merge_blocks
from .defunc import defunctionalize
from .errors import (
    BudgetExceeded,
    DefuncError,
    InterpError,
    LexError,
    MiniError,
    ParseError,
    TransformError,
    ValidationError,
)
from .interp import (
    Interpreter,
    interp,
    interp_native,
    render_output,
    render_value,
    resume_sequence,
    values_equal,
)
from .lexer import Token, lex
from .parser import parse, parse_source, validate
from .printer import expr_source, print_source
from .syntax import Block, Expr, FuncDecl, Program, Stmt
from .transform import StateMachinePlan, plan_generator, rewrite_generator, transform_program

__version__ = "0.1.0"

__all__ = [
    "BasicBlock",
    "Block",
    "Branch",
    "BudgetExceeded",
    "Cfg",
    "DefuncError",
    "END",
    "Expr",
    "Finish",
    "FuncDecl",
    "Goto",
    "Interpreter",
    "InterpError",
    "LexError",
    "MiniError",
    "ParseError",
    "Program",
    "StateMachinePlan",
    "Stmt",
    "Token",
    "TransformError",
    "ValidationError",
    "YieldTo",
    "build_cfg",
    "check_cfg",
    "defunctionalize",
    "emit_dot",
    "eval_cfg",
    "expr_source",
    "interp",
    "interp_native",
    "lex",
    "merge_blocks",
    "parse",
    "parse_source",
    "plan_generator",
    "print_source",
    "render_output",
    "render_value",
    "resume_sequence",
    "rewrite_generator",
    "transform_program",
    "validate",
    "values_equal",
]
