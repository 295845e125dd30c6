import pytest

from corolower.errors import LexError
from corolower.lexer import lex


def kinds_texts(source):
    return [(t.kind, t.text) for t in lex(source) if t.kind != "eof"]


def test_yield_statement():
    assert kinds_texts("yield a") == [("kw", "yield"), ("ident", "a")]


def test_let_with_sum():
    assert kinds_texts("let c = a + b") == [
        ("kw", "let"),
        ("ident", "c"),
        ("op", "="),
        ("ident", "a"),
        ("op", "+"),
        ("ident", "b"),
    ]


def test_bad_character_position():
    with pytest.raises(LexError) as err:
        lex("let x = 1 @ 2")
    assert err.value.line == 1
    assert err.value.col == 11


def test_positions_track_lines():
    tokens = lex("let x = 1\n// comment\nx = x + 1\n")
    assign = [t for t in tokens if t.text == "x"][1]
    assert (assign.line, assign.col) == (3, 1)


def test_two_char_operators():
    ops = [t.text for t in lex("a == b != c <= d >= e && f || g") if t.kind == "op"]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||"]


def test_comments_and_whitespace_discarded():
    assert kinds_texts("  // all comment\n\t\n") == []


def test_keywords_vs_identifiers():
    toks = kinds_texts("next nexts fnord fn")
    assert toks == [
        ("kw", "next"),
        ("ident", "nexts"),
        ("ident", "fnord"),
        ("kw", "fn"),
    ]


def test_int_literal_range():
    assert kinds_texts(str(2**63 - 1)) == [("int", str(2**63 - 1))]
    with pytest.raises(LexError):
        lex(str(2**63))


def test_error_position_inside_input():
    source = "fn main() {\n  let a = $\n}"
    with pytest.raises(LexError) as err:
        lex(source)
    lines = source.split("\n")
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.col <= len(lines[err.value.line - 1]) + 1


def test_positions_after_crlf():
    tokens = lex("let a\r\n  = 1\r\n")
    assert [(t.text, t.line, t.col) for t in tokens] == [
        ("let", 1, 1),
        ("a", 1, 5),
        ("=", 2, 3),
        ("1", 2, 5),
        ("", 3, 1),
    ]


def eof(source):
    token = lex(source)[-1]
    assert token.kind == "eof"
    return token.line, token.col


def test_eof_after_trailing_comment_without_newline():
    assert eof("x // note") == (1, 10)
    assert eof("x\n// note") == (2, 8)
    assert eof("x //") == (1, 5)
    assert len(lex("x //")) == 2


def test_eof_position():
    assert eof("") == (1, 1)
    assert eof("ab") == (1, 3)
    assert eof("fn main() { }\n") == (2, 1)
    assert eof("a\n\t b ") == (2, 5)


@pytest.mark.parametrize(
    "source, col",
    [
        ("fn main() { print(²) }", 19),  # superscript two
        ("let x = ٣", 9),  # Arabic-Indic three
        ("let x = 1٣", 10),
        ("let x² = 1", 6),
    ],
)
def test_only_ascii_digits_are_digits(source, col):
    with pytest.raises(LexError, match="unexpected character") as err:
        lex(source)
    assert (err.value.line, err.value.col) == (1, col)


def test_ascii_digits_in_identifiers_and_literals():
    assert kinds_texts("let x09_ = 0123") == [
        ("kw", "let"),
        ("ident", "x09_"),
        ("op", "="),
        ("int", "0123"),
    ]
