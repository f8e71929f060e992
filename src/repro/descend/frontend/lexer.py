"""The Descend lexer: one master regular expression over the whole file.

:func:`tokenize` returns the tokens as four parallel lists — kind, text,
start and end offset — padded with ``EOF`` entries.  It builds no object per
token; the parser makes a :class:`~repro.descend.source.Span` only where an
AST node or a diagnostic takes one.

The lexical rules:

* whitespace is space, tab, ``\\r`` and ``\\n``; ``//`` comments run to the
  end of the line, and ``/* */`` comments do not nest;
* digits are ASCII ``0-9`` only: ``[0-9]+`` is an integer and
  ``[0-9]+.[0-9]+`` a float, so ``0..4`` lexes as ``0``, ``..``, ``4``;
* an identifier starts with a character for which ``str.isalpha()`` is true,
  or ``_``, and continues with ``str.isalnum()`` characters or ``_`` (the
  characters ``\\w`` matches); keywords are identifiers;
* two-character operators are matched before one-character ones;
* any other character raises E0000 ``unexpected character``.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.descend.diagnostics import Diagnostic
from repro.descend.frontend.tokens import TokenKind
from repro.descend.source import Span
from repro.errors import DescendSyntaxError

#: ``EOF`` entries after the last token: the parser looks up to three tokens
#: past its position, which never moves beyond the first ``EOF``.
EOF_PADDING = 4

_PUNCTUATION = {
    kind.value: kind
    for kind in TokenKind
    if kind not in (TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.EOF)
}

# Trivia before every token is consumed greedily, and the alternatives after
# it match any character or the end of the text, so a match never backtracks
# into a comment or whitespace.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"  # trivia
    r"(?:([A-Za-z_]\w*)"  # _IDENT
    r"|([0-9]+\.[0-9]+)"  # _FLOAT
    r"|([0-9]+)"  # _INT
    r"|(/\*)"  # _OPEN_COMMENT: a block comment without its `*/`
    # _PUNCTUATION_GROUP, longest first: two-character operators win
    r"|(" +"|".join(re.escape(p) for p in sorted(_PUNCTUATION, key=len, reverse=True)) + r")"
    r"|(\w+)"  # _WORD: starts beyond ASCII; an identifier if that is a letter
    r"|(.)"  # _OTHER: an unexpected character
    r"|(\Z))",  # _END
    re.DOTALL,
)
_IDENT, _FLOAT, _INT, _OPEN_COMMENT, _PUNCTUATION_GROUP, _WORD, _OTHER, _END = range(1, 9)
_LITERAL_KINDS = (None, TokenKind.IDENT, TokenKind.FLOAT, TokenKind.INT)


class Tokens(NamedTuple):
    """One file's tokens as parallel lists, ending in ``EOF_PADDING`` EOFs."""

    kinds: List[TokenKind]
    texts: List[str]
    starts: List[int]
    ends: List[int]


def tokenize(text: str, name: str = "<descend>") -> Tokens:
    """Lex a whole source string; the first lexical error raises."""
    kinds: List[TokenKind] = []
    texts: List[str] = []
    starts: List[int] = []
    ends: List[int] = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        start, end = match.span(group)
        word = text[start:end]
        if group == _PUNCTUATION_GROUP:
            kind = _PUNCTUATION[word]
        elif group <= _INT:
            kind = _LITERAL_KINDS[group]
        elif group == _END:
            break
        elif group == _WORD and word[0].isalpha():
            kind = TokenKind.IDENT
        elif group == _OPEN_COMMENT:
            raise _error("unterminated block comment", start, name)
        else:
            raise _error(f"unexpected character {text[start]!r}", start, name)
        kinds.append(kind)
        texts.append(word)
        starts.append(start)
        ends.append(end)
    end = len(text)
    kinds.extend([TokenKind.EOF] * EOF_PADDING)
    texts.extend([""] * EOF_PADDING)
    starts.extend([end] * EOF_PADDING)
    ends.extend([end] * EOF_PADDING)
    return Tokens(kinds, texts, starts, ends)


def _error(message: str, start: int, name: str) -> DescendSyntaxError:
    span = Span(start, start + 1, name)
    return DescendSyntaxError(message, Diagnostic.error("E0000", message, span))
