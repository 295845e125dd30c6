"""Tokenizer. Whitespace and `//` line comments are discarded; every token
carries a 1-based line/column."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LexError

KEYWORDS = frozenset(
    [
        "fn",
        "let",
        "yield",
        "if",
        "else",
        "while",
        "return",
        "print",
        "true",
        "false",
        "null",
        "next",
    ]
)

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR_OPS = "*(){},.:=&+-/%<>!"

INT_MAX = 2**63 - 1

# Only ASCII digits are digits: `str.isdigit` also takes `²` and `٣`.
_DIGITS = frozenset("0123456789")
_WORD = _DIGITS | {"_"}


@dataclass(frozen=True)
class Token:
    kind: str  # "kw" | "ident" | "int" | "op" | "eof"
    text: str
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0  # index of the current line's first character
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "/" and source.startswith("//", i):
            i = source.find("\n", i)
            if i < 0:
                i = n
            continue
        col = i - line_start + 1
        if c in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            text = source[i:j]
            if int(text) > INT_MAX:
                raise LexError(f"integer literal {text} out of range", line, col)
            tokens.append(Token("int", text, line, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalpha() or source[j] in _WORD):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, col))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(Token("op", c, line, col))
            i += 1
            continue
        raise LexError(f"unexpected character {c!r}", line, col)

    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens
