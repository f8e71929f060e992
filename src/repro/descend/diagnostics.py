"""Compiler diagnostics with rustc-style rendering.

The paper shows Descend error messages with caret-underlined spans and
secondary labels (Section 2).  :class:`Diagnostic` captures the structured
form (error code, message, labels, notes) and :func:`render_diagnostic`
produces the textual form.

Error codes used throughout the type checker:

======  =====================================================================
code    meaning
======  =====================================================================
E0001   conflicting memory access (data race prevented)
E0002   barrier not allowed here (sync under a split execution resource)
E0003   mismatched types (memory space of a reference)
E0004   cannot dereference a pointer in the wrong execution context
E0005   mismatched launch configuration / array size
E0006   narrowing violated
E0007   use of moved value
E0008   borrow conflict
E0009   unknown name (variable, function, view, exec resource)
E0010   illegal scheduling (dimension missing or already scheduled)
E0011   type mismatch (general)
E0012   kind / generic-argument mismatch
E0013   shared-memory allocation outside a block
E0014   mutation through a shared reference or non-unique place
E0015   synchronisation missing (conflicting accesses across loop iterations)
======  =====================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.descend.source import NO_SPAN, SourceFile, Span


@dataclass(frozen=True)
class Label:
    """A span plus the message attached to it."""

    span: Span
    message: str = ""
    primary: bool = True


@dataclass
class Diagnostic:
    """A structured compiler diagnostic."""

    severity: str
    code: str
    message: str
    labels: List[Label] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @classmethod
    def error(
        cls,
        code: str,
        message: str,
        span: Span = NO_SPAN,
        label: str = "",
        notes: Optional[Sequence[str]] = None,
    ) -> "Diagnostic":
        labels = []
        if span is not None:
            labels.append(Label(span=span, message=label, primary=True))
        return cls("error", code, message, labels, list(notes or []))

    @classmethod
    def warning(cls, code: str, message: str, span: Span = NO_SPAN, label: str = "") -> "Diagnostic":
        return cls("warning", code, message, [Label(span=span, message=label, primary=True)], [])

    def with_label(self, span: Span, message: str, primary: bool = False) -> "Diagnostic":
        """Attach a secondary label and return self (builder style)."""
        self.labels.append(Label(span=span, message=message, primary=primary))
        return self

    def with_note(self, note: str) -> "Diagnostic":
        self.notes.append(note)
        return self

    def render(self, source: Optional[SourceFile] = None) -> str:
        return render_diagnostic(self, source)

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}]: {self.message}"


def _render_label(source: SourceFile, label: Label, lines: List[str]) -> None:
    """Append the snippet + caret lines for one label."""
    line_no, col = source.line_col(label.span.start)
    end_line, end_col = source.line_col(max(label.span.start, label.span.end - 1))
    gutter = f"{line_no:>4} | "
    text = source.line_text(line_no)
    lines.append(f"  --> {label.span.file_name}:{line_no}:{col}")
    lines.append("     |")
    lines.append(gutter + text)
    if end_line == line_no:
        width = max(1, end_col - col + 1)
    else:
        width = max(1, len(text) - (col - 1))
    marker = "^" if label.primary else "-"
    underline = " " * (col - 1) + marker * width
    suffix = f" {label.message}" if label.message else ""
    lines.append("     | " + underline + suffix)


def render_diagnostic(diagnostic: Diagnostic, source: Optional[SourceFile] = None) -> str:
    """Render a diagnostic as human readable text.

    When ``source`` is available and the labels carry real spans, the output
    mimics the compiler error listings from the paper with caret underlines.
    Otherwise only the headline, label messages, and notes are printed.
    """
    lines = [f"{diagnostic.severity}[{diagnostic.code}]: {diagnostic.message}"]
    for label in diagnostic.labels:
        span = label.span
        if source is not None and not span.is_synthetic() and span.file_name == source.name:
            _render_label(source, label, lines)
        elif label.message:
            prefix = "  = primary: " if label.primary else "  = note: "
            lines.append(prefix + label.message)
    lines.extend(f"  = note: {note}" for note in diagnostic.notes)
    return "\n".join(lines)


class DiagnosticBag:
    """Collects diagnostics during a compilation phase.

    The type checker reports the first error eagerly (raising), but several
    tools (the CLI, tests) want to accumulate warnings as well — this small
    container keeps both.
    """

    def __init__(self) -> None:
        self._diagnostics: List[Diagnostic] = []

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self._diagnostics.append(diagnostic)
        return diagnostic

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.severity == "error")

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.severity == "warning")

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self._diagnostics)

    def render_all(self, source: Optional[SourceFile] = None) -> str:
        return "\n\n".join(d.render(source) for d in self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self):
        return iter(self._diagnostics)
