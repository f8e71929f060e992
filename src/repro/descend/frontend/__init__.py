"""The Descend surface-syntax frontend: lexer and recursive-descent parser.

The accepted syntax follows the paper's listings; ``parse_program`` turns a
source string into the same AST the builder API produces, so parsed programs
flow through the identical type checking / code generation / interpretation
pipeline.
"""

from repro.descend.frontend.lexer import tokenize
from repro.descend.frontend.parser import parse_program
from repro.descend.frontend.tokens import TokenKind

__all__ = ["tokenize", "parse_program", "TokenKind"]
