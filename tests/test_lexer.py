import random

import pytest

from corolower.errors import LexError
from corolower.lexer import KEYWORDS, lex

from conftest import CORPUS_FILES


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


@pytest.mark.parametrize("source", ["abé", "café", "_é1", "é", "xé"])
def test_non_ascii_identifier_is_one_token(source):
    tokens = lex(f"x {source} = 1")
    assert [(t.kind, t.text, t.line, t.col) for t in tokens[:3]] == [
        ("ident", "x", 1, 1),
        ("ident", source, 1, 3),
        ("op", "=", 1, len(source) + 4),
    ]


def test_non_ascii_identifier_after_comment_and_newline():
    tokens = lex("//c\n  abé //d\n\tfné(1)")
    assert [(t.text, t.line, t.col) for t in tokens] == [
        ("abé", 2, 3),
        ("fné", 3, 2),
        ("(", 3, 5),
        ("1", 3, 6),
        (")", 3, 7),
        ("", 3, 8),
    ]


def test_slash_is_an_operator_only_outside_a_comment():
    assert kinds_texts("a / b // c / d\ne//f") == [
        ("ident", "a"),
        ("op", "/"),
        ("ident", "b"),
        ("ident", "e"),
    ]


def test_token_repr():
    assert repr(lex("ab")[0]) == "Token(ident, 'ab', 1:1)"


def test_every_corpus_token_sits_at_its_position():
    for path in CORPUS_FILES:
        lines = path.read_text().split("\n")
        for tok in lex(path.read_text())[:-1]:
            text = lines[tok.line - 1]
            assert text[tok.col - 1 : tok.col - 1 + len(tok.text)] == tok.text, (
                path.name,
                tok,
            )


def reference_lex(source):
    """A character-at-a-time lexer with lex's rules, to compare against."""
    tokens, i, line, line_start, n = [], 0, 1, 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i, line, line_start = i + 1, line + 1, i + 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            i = source.find("\n", i) % (n + 1)
            continue
        col = i - line_start + 1
        j = i + 1
        if c in "0123456789":
            while j < n and source[j] in "0123456789":
                j += 1
            if int(source[i:j]) > 2**63 - 1:
                raise LexError(f"integer literal {source[i:j]} out of range", line, col)
            kind = "int"
        elif c.isalpha() or c == "_":
            while j < n and (source[j].isalpha() or source[j] in "0123456789_"):
                j += 1
            kind = "kw" if source[i:j] in KEYWORDS else "ident"
        elif source[i : i + 2] in ("==", "!=", "<=", ">=", "&&", "||"):
            j, kind = i + 2, "op"
        elif c in "*(){},.:=&+-/%<>!":
            kind = "op"
        else:
            raise LexError(f"unexpected character {c!r}", line, col)
        tokens.append((kind, source[i:j], line, col))
        i = j
    return tokens + [("eof", "", line, n - line_start + 1)]


def outcome(lexer, source):
    try:
        return [tuple(t) for t in lexer(source)]
    except LexError as err:
        return (str(err),)


def test_lex_agrees_with_a_character_loop():
    alphabet = [" ", "\t", "\r", "\n", "//", "/", "=", "==", "|", "||", "&",
                "a", "Z", "_", "é", "ß", "²", "٣", "7", "0", "fn", "let",
                "99999999999999999999", "@", "(", "}", "!", "<"]
    rng = random.Random(14)
    for _ in range(3000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert outcome(lex, source) == outcome(reference_lex, source), repr(source)
