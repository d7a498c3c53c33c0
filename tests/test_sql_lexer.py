"""Unit tests for the SQL lexer."""

import importlib.util
from pathlib import Path

import pytest

from repro.errors import LexerError
from repro.sql import Token, TokenType, tokenize
from repro.sql.lexer import KEYWORDS


def token_values(sql):
    return [(t.type, t.value) for t in tokenize(sql) if t.type is not TokenType.EOF]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = token_values("SELECT select SeLeCt")
        assert tokens == [(TokenType.KEYWORD, "select")] * 3

    def test_identifiers_preserve_case(self):
        tokens = token_values("movie_Keyword t1")
        assert tokens == [
            (TokenType.IDENTIFIER, "movie_Keyword"),
            (TokenType.IDENTIFIER, "t1"),
        ]

    def test_numbers(self):
        # ``-`` is always the operator token; the parser folds unary minus
        # over number literals, so ``x-7`` and ``x - 7`` parse identically.
        tokens = token_values("42 3.14 -7")
        assert tokens == [
            (TokenType.NUMBER, "42"),
            (TokenType.NUMBER, "3.14"),
            (TokenType.OPERATOR, "-"),
            (TokenType.NUMBER, "7"),
        ]

    def test_arithmetic_operators(self):
        tokens = token_values("a + b - c / d % e * f")
        assert (TokenType.OPERATOR, "+") in tokens
        assert (TokenType.OPERATOR, "-") in tokens
        assert (TokenType.OPERATOR, "/") in tokens
        assert (TokenType.OPERATOR, "%") in tokens
        assert (TokenType.STAR, "*") in tokens

    def test_strings_with_escaped_quote(self):
        tokens = token_values("'it''s fine'")
        assert tokens == [(TokenType.STRING, "it's fine")]

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_operators(self):
        tokens = token_values("= <> != < <= > >=")
        values = [v for _, v in tokens]
        assert values == ["=", "<>", "<>", "<", "<=", ">", ">="]

    def test_punctuation(self):
        types = [t for t, _ in token_values("( ) , . * ;")]
        assert types == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.DOT,
            TokenType.STAR,
            TokenType.SEMICOLON,
        ]

    def test_comments_skipped(self):
        tokens = token_values("SELECT -- a comment\n1")
        assert tokens == [(TokenType.KEYWORD, "select"), (TokenType.NUMBER, "1")]

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT @")

    def test_eof_token_present(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].type is TokenType.EOF

    def test_matches_keyword_helper(self):
        token = tokenize("FROM")[0]
        assert token.matches_keyword("from")
        assert not token.matches_keyword("select")
        assert isinstance(token, Token)


# -- the master-regex lexer against the character loop it replaced ----------


def _reference_tokens(sql):
    """The character-at-a-time lexer the master regex replaced, frozen as
    ``(type, value, position)`` triples; a LexerError becomes the single
    triple ``("error", message, position)``.  It gave a string literal the
    offset one past its closing quote."""
    out = []
    i = 0
    length = len(sql)
    operators = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "/", "%")
    punctuation = {
        ",": TokenType.COMMA,
        ".": TokenType.DOT,
        "(": TokenType.LPAREN,
        ")": TokenType.RPAREN,
        "*": TokenType.STAR,
        ";": TokenType.SEMICOLON,
        "?": TokenType.PARAMETER,
    }
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = length if newline == -1 else newline + 1
            continue
        if ch == "'":
            start = i
            i += 1
            chars = []
            while True:
                if i >= length:
                    return [("error", "unterminated string literal", start)]
                if sql[i] == "'":
                    if i + 1 < length and sql[i + 1] == "'":
                        chars.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chars.append(sql[i])
                i += 1
            out.append((TokenType.STRING, "".join(chars), i))
            continue
        if ch.isdigit():
            start = i
            i += 1
            while i < length and (sql[i].isdigit() or sql[i] == "."):
                i += 1
            out.append((TokenType.NUMBER, sql[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            if word.lower() in KEYWORDS:
                out.append((TokenType.KEYWORD, word.lower(), start))
            else:
                out.append((TokenType.IDENTIFIER, word, start))
            continue
        op = next((op for op in operators if sql.startswith(op, i)), None)
        if op is not None:
            out.append((TokenType.OPERATOR, "<>" if op == "!=" else op, i))
            i += len(op)
            continue
        if ch not in punctuation:
            return [("error", f"unexpected character {ch!r}", i)]
        out.append((punctuation[ch], ch, i))
        i += 1
    return out + [(TokenType.EOF, "", length)]


def _tokens(sql):
    """``tokenize`` as triples, with the string positions moved to where
    the reference put them (one past the closing quote)."""
    try:
        tokens = tokenize(sql)
    except LexerError as exc:
        return [("error", exc.args[0].split(" (at offset")[0], exc.position)]
    return [
        (
            token.type,
            token.value,
            _string_end(sql, token.position)
            if token.type is TokenType.STRING
            else token.position,
        )
        for token in tokens
    ]


def _string_end(sql, start):
    i = start + 1
    while True:
        if sql[i] == "'" and sql[i + 1 : i + 2] == "'":
            i += 2
        elif sql[i] == "'":
            return i + 1
        else:
            i += 1


def _corpus_sql():
    """The SQL of the fuzz suite's regression corpus."""
    path = Path(__file__).parent / "property" / "test_sql_fuzz_differential.py"
    spec = importlib.util.spec_from_file_location("_fuzz_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [case[3] for case in module.REGRESSION_CORPUS if case[3]]


class TestMasterRegexMatchesCharacterLoop:
    def test_job_statements(self, job_queries):
        assert len(job_queries) == 113
        for query in job_queries:
            assert _tokens(query.sql) == _reference_tokens(query.sql), query.name

    def test_fuzz_regression_corpus(self):
        for sql in _corpus_sql():
            assert _tokens(sql) == _reference_tokens(sql), sql

    @pytest.mark.parametrize(
        "sql",
        [
            "'it''s' ''''",
            "'a''",
            "'a' 'b''c'",
            "x -- trailing comment",
            "x--c\ny",
            "1.2.3 .5 3.",
            "a!=b != !",
            "t.x<=>=<>",
            "'unterminated",
            "SELECT @",
            "été _x9 x²",
        ],
    )
    def test_edge_cases(self, sql):
        assert _tokens(sql) == _reference_tokens(sql)

    def test_every_character_in_every_position(self):
        """Each code point up to U+2FFF plus a few exotic ones, alone and
        around a word, a number and a string.  The one divergence: numeric
        characters that are not decimal digits ('²', '①') made the
        reference emit a NUMBER the parser could not convert; they are now a
        LexerError."""
        points = list(range(0x3000)) + [0x1D7CE, 0x20000, 0xE0001, 0x10FFFF]
        for point in points:
            ch = chr(point)
            if ch.isdigit() and not ch.isdecimal():
                assert _tokens(ch)[0][0] == "error"
                continue
            for sql in (ch, f"a{ch}b", f"1{ch}2", f"'{ch}'", f"{ch}x", f"-{ch}-"):
                assert _tokens(sql) == _reference_tokens(sql), (hex(point), sql)

    def test_string_token_carries_its_start_offset(self):
        tokens = tokenize("SELECT * FROM t WHERE a = 'abc' AND b = 1")
        string = next(t for t in tokens if t.type is TokenType.STRING)
        assert (string.value, string.position) == ("abc", 26)
