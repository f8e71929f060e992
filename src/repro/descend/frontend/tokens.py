"""Token kinds of the Descend lexer."""

from __future__ import annotations

import enum


class TokenKind(enum.Enum):
    """Kinds of tokens produced by the lexer.

    Keywords lex as ``IDENT``; the parser recognises them by their text.
    """

    IDENT = "identifier"
    INT = "integer"
    FLOAT = "float"
    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    LANGLE = "<"
    RANGLE = ">"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    COLONCOLON = "::"
    DOT = "."
    DOTDOT = ".."
    AT = "@"
    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    CARET = "^"
    AMP = "&"
    AMPAMP = "&&"
    PIPEPIPE = "||"
    BANG = "!"
    EQ = "="
    EQEQ = "=="
    NEQ = "!="
    LEQ = "<="
    GEQ = ">="
    ARROW = "->"
    FATARROW = "=>"
    EOF = "end of input"

    def __str__(self) -> str:
        return self.value
