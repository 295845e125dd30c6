"""Tokenizer. Whitespace and `//` line comments are discarded; every token
carries a 1-based line/column."""

from __future__ import annotations

import re
from typing import NamedTuple

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
        "switch",
        "case",
    ]
)

INT_MAX = 2**63 - 1

# Only ASCII digits are digits: `str.isdigit` also takes `²` and `٣`.
_DIGITS = frozenset("0123456789")
_WORD = _DIGITS | {"_"}

# Whitespace and comments. A match of it ends only where a token can
# start: no token starts with whitespace, and a comment runs to its line end.
_SPACE = r"[ \t\r\n]*(?://[^\n]*(?![^\n])[ \t\r\n]*)*"

# One match per token: the space before it, then an ASCII word, an integer
# or an operator. A position has one match at most, the longest: `/` is no
# operator before `/`, and a word does not stand before a word or
# non-ASCII character (the regex must not take `ab` of `abé`). What the
# regex does not take, lex passes to `_word`.
_SCAN = re.compile(
    f"({_SPACE})"
    r"(?:([A-Za-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_]|[^\x00-\x7f])"
    r"|([0-9]+)"
    r"|(==|!=|<=|>=|&&|\|\||/(?!/)|[*(){},.:=&+\-%<>!]))"
)
_SKIP = re.compile(_SPACE)
_KIND = dict.fromkeys(KEYWORDS, "kw")
_new = tuple.__new__  # a Token without NamedTuple's Python-level __new__


class Token(NamedTuple):
    kind: str  # "kw" | "ident" | "int" | "op" | "eof"
    text: str
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    line = 1
    line_start = 0  # index of the current line's first character
    n = len(source)
    while True:
        for m in iter(_SCAN.scanner(source, i).match, None):
            skip, word, number, op = m.groups()
            if "\n" in skip:
                line += skip.count("\n")
                line_start = i + skip.rindex("\n") + 1
            i = m.end()
            if op is not None:
                append(_new(Token, ("op", op, line, i - len(op) - line_start + 1)))
            elif word is not None:
                col = i - len(word) - line_start + 1
                append(_new(Token, (_KIND.get(word, "ident"), word, line, col)))
            else:
                col = i - len(number) - line_start + 1
                if int(number) > INT_MAX:
                    raise LexError(f"integer literal {number} out of range", line, col)
                append(_new(Token, ("int", number, line, col)))
        skip = _SKIP.match(source, i).group()
        if "\n" in skip:
            line += skip.count("\n")
            line_start = i + skip.rindex("\n") + 1
        i += len(skip)
        if i == n:
            break
        i = _word(source, i, line, i - line_start + 1, append)

    append(Token("eof", "", line, n - line_start + 1))
    return tokens


def _word(source: str, i: int, line: int, col: int, append) -> int:
    """The identifier or keyword at i, whose letters need not be ASCII;
    returns the index after it."""
    c = source[i]
    if not (c.isalpha() or c == "_"):
        raise LexError(f"unexpected character {c!r}", line, col)
    j = i + 1
    while j < len(source) and (source[j].isalpha() or source[j] in _WORD):
        j += 1
    text = source[i:j]
    append(Token(_KIND.get(text, "ident"), text, line, col))
    return j
