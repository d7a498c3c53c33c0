"""Tokenizer for the supported SQL dialect."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.errors import LexerError

KEYWORDS = {
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "in",
    "like",
    "between",
    "is",
    "null",
    "as",
    "min",
    "max",
    "count",
    "sum",
    "avg",
    "group",
    "order",
    "by",
    "asc",
    "desc",
    "limit",
    "offset",
    "create",
    "temp",
    "temporary",
    "table",
    "distinct",
    "case",
    "when",
    "then",
    "else",
    "end",
    "true",
    "false",
}


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    SEMICOLON = "semicolon"
    PARAMETER = "parameter"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset (for error messages)."""

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        """True if this token is the given keyword (case-insensitive)."""
        return self.type is TokenType.KEYWORD and self.value == keyword.lower()


#: One alternative per token class, tried in this order at each offset; the
#: last catches a character no token can start with.
_TOKEN_PATTERN = re.compile(
    r"(\s+|--[^\n]*\n?)"  # 1: whitespace or a comment to end of line
    r"|'([^']*(?:''[^']*)*)'(?!')"  # 2: string body, '' escapes a quote
    r"|(\d[\d.]*)"  # 3: number
    r"|([^\W\d]\w*)"  # 4: word
    r"|(<=|>=|<>|!=|[=<>+\-/%])"  # 5: operator
    r"|([,.()*;?])"  # 6: punctuation
    r"|(.)",  # 7: anything else
    re.DOTALL,
)
_PUNCTUATION = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "*": TokenType.STAR,
    ";": TokenType.SEMICOLON,
    "?": TokenType.PARAMETER,
}


def tokenize(sql: str) -> List[Token]:
    """Tokenize SQL text into a list of tokens ending with an EOF token.

    Every token carries the offset of its first character (a string
    literal's is its opening quote).  A leading ``-`` is always the operator
    token; the parser folds unary minus over number literals itself, so
    ``x-3`` and ``x - 3`` tokenize identically.

    Raises:
        LexerError: on characters that cannot start any token or on an
            unterminated string literal.
    """
    tokens: List[Token] = []
    for found in _TOKEN_PATTERN.finditer(sql):
        kind = found.lastindex
        if kind == 1:
            continue
        text = found.group(kind)
        start = found.start()
        if kind == 4:
            # \w also admits numeric characters that are not decimal digits
            # ('²', '½'); a word starts with a letter or '_' only.
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexerError(f"unexpected character {text[0]!r}", start)
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, text, start))
        elif kind == 6:
            tokens.append(Token(_PUNCTUATION[text], text, start))
        elif kind == 5:
            tokens.append(Token(TokenType.OPERATOR, "<>" if text == "!=" else text, start))
        elif kind == 3:
            tokens.append(Token(TokenType.NUMBER, text, start))
        elif kind == 2:
            tokens.append(Token(TokenType.STRING, text.replace("''", "'"), start))
        elif text == "'":
            raise LexerError("unterminated string literal", start)
        else:
            raise LexerError(f"unexpected character {text!r}", start)
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens
