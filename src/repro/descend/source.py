"""Source files and spans.

Every AST node produced by the parser carries a :class:`Span` pointing back
into a :class:`SourceFile`.  Spans are used by the diagnostics machinery to
render the caret-underlined error messages shown in the paper (Section 2).
Programs built programmatically via :mod:`repro.descend.builder` use
:data:`NO_SPAN`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """A half-open byte range ``[start, end)`` within a source file."""

    start: int = 0
    end: int = 0
    file_name: str = "<builder>"

    def merge(self, other: Optional["Span"]) -> "Span":
        """Return the smallest span covering both ``self`` and ``other``."""
        if other is None or other is NO_SPAN or other.file_name != self.file_name:
            return self
        if self is NO_SPAN:
            return other
        return Span(min(self.start, other.start), max(self.end, other.end), self.file_name)

    @property
    def length(self) -> int:
        return max(0, self.end - self.start)

    def is_synthetic(self) -> bool:
        """True for spans that do not point into real source text."""
        return self.file_name == "<builder>" and self.start == 0 and self.end == 0


#: Span used for programmatically constructed AST nodes.
NO_SPAN = Span()


class SourceFile:
    """A named piece of Descend source text with line/column lookup.

    Only rendering a diagnostic looks up lines, so the line table is built on
    the first :meth:`line_col` or :meth:`line_text` call.
    """

    def __init__(self, text: str, name: str = "<descend>"):
        self.text = text
        self.name = name

    @cached_property
    def _line_starts(self) -> List[int]:
        starts = [0]
        starts.extend(index + 1 for index, char in enumerate(self.text) if char == "\n")
        return starts

    def span(self, start: int, end: int) -> Span:
        """Create a span owned by this file."""
        return Span(start, end, self.name)

    def line_col(self, offset: int) -> Tuple[int, int]:
        """Return the 1-based ``(line, column)`` of a byte offset."""
        offset = max(0, min(offset, len(self.text)))
        low, high = 0, len(self._line_starts) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if self._line_starts[mid] <= offset:
                low = mid
            else:
                high = mid - 1
        line = low
        column = offset - self._line_starts[line]
        return line + 1, column + 1

    def line_text(self, line_number: int) -> str:
        """Return the text of a 1-based line number without the newline."""
        index = line_number - 1
        if index < 0 or index >= len(self._line_starts):
            return ""
        start = self._line_starts[index]
        if index + 1 < len(self._line_starts):
            end = self._line_starts[index + 1] - 1
        else:
            end = len(self.text)
        return self.text[start:end]

    def snippet(self, span: Span) -> str:
        """Return the raw source text covered by a span."""
        return self.text[span.start:span.end]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceFile(name={self.name!r}, {len(self.text)} bytes)"
