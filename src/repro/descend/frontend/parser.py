"""A recursive-descent parser for the Descend surface syntax.

The accepted grammar covers the language as used in the paper's listings:
function definitions with execution-resource annotations, ``sched`` /
``split`` / ``sync``, views with ``::<...>`` arguments, selects
``p[[exec]]``, references ``&uniq mem T``, nested array types, kernel
launches ``f::<<<X<1>, X<n>>>>(...)``, and ``for`` loops over nat ranges.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim, DimName, dim_from_spec, parse_dim_name
from repro.descend.ast.exec_level import (
    CpuThreadLevel,
    ExecSpec,
    GpuBlockLevel,
    GpuGridLevel,
    GpuThreadLevel,
)
from repro.descend.ast.memory import memory_from_name
from repro.descend.ast.places import PDeref, PIdx, PProj, PSelect, PVar, PView, PlaceExpr
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    BOOL,
    DataType,
    F64,
    GenericParam,
    I32,
    Kind,
    RefType,
    TupleType,
    TyVar,
    UNIT,
    is_scalar_name,
    scalar_from_name,
)
from repro.descend.ast.views import ViewRef
from repro.descend.diagnostics import Diagnostic
from repro.descend.frontend.lexer import tokenize
from repro.descend.frontend.tokens import TokenKind
from repro.descend.nat import Nat, NatBinOp, NatConst, NatVar
from repro.descend.source import SourceFile, Span
from repro.errors import DescendSyntaxError

_MEMORY_ROOTS = ("cpu", "gpu")
_KINDS = {"nat": Kind.NAT, "mem": Kind.MEMORY, "dty": Kind.DATA_TYPE}
_COMPARISONS = frozenset(("<", ">", "<=", ">=", "==", "!="))


class Parser:
    """Parses one source file into a Descend program.

    The whole file is lexed up front into parallel lists (see
    :func:`~repro.descend.frontend.lexer.tokenize`), so a token is its index
    and a lexical error is reported before any parse error.
    """

    def __init__(self, source: SourceFile) -> None:
        self.name = source.name
        self.kinds, self.texts, self.starts, self.ends = tokenize(source.text, source.name)
        self.pos = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> TokenKind:
        return self.kinds[self.pos + offset]

    def at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self.kinds[self.pos + offset] is kind

    def at_keyword(self, word: str) -> bool:
        # Keywords lex as identifiers, and no other token's text is a word.
        return self.texts[self.pos] == word

    def span(self, index: int) -> Span:
        """The span of the token at ``index``."""
        return Span(self.starts[index], self.ends[index], self.name)

    def span_from(self, first: int) -> Span:
        """The span of the tokens consumed since index ``first``."""
        return Span(self.starts[first], self.ends[self.pos - 1], self.name)

    def advance(self) -> int:
        """Consume the current token (never past the end); returns its index."""
        index = self.pos
        if self.kinds[index] is not TokenKind.EOF:
            self.pos = index + 1
        return index

    def expect(self, kind: TokenKind, context: str = "") -> int:
        if self.kinds[self.pos] is not kind:
            raise self._expected(f"`{kind}`", context)
        return self.advance()

    def expect_ident(self, context: str = "") -> str:
        return self.texts[self.expect(TokenKind.IDENT, context)]

    def expect_keyword(self, word: str, context: str = "") -> int:
        if self.texts[self.pos] != word:
            raise self._expected(f"`{word}`", context)
        return self.advance()

    def _expected(self, expected: str, context: str) -> DescendSyntaxError:
        hint = f" while parsing {context}" if context else ""
        found = self.texts[self.pos] or self.peek()
        return self.error(f"expected {expected}, found `{found}`{hint}", self.span(self.pos))

    def error(self, message: str, span: Span) -> DescendSyntaxError:
        return DescendSyntaxError(message, Diagnostic.error("E0000", message, span))

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------

    def parse_program(self) -> T.Program:
        fun_defs: List[T.FunDef] = []
        while not self.at(TokenKind.EOF):
            if self.at_keyword("fn"):
                fun_defs.append(self.parse_fun_def())
            else:
                raise self.error(f"expected `fn`, found `{self.texts[self.pos]}`", self.span(self.pos))
        return T.Program(tuple(fun_defs))

    def parse_fun_def(self) -> T.FunDef:
        start = self.span(self.expect_keyword("fn"))
        name = self.expect_ident("function name")
        generics = self._parse_generics()
        self.expect(TokenKind.LPAREN, "parameter list")
        params: List[T.FunParam] = []
        while not self.at(TokenKind.RPAREN):
            param_name = self.expect_ident("parameter")
            self.expect(TokenKind.COLON, "parameter type")
            param_ty = self.parse_type()
            params.append(T.FunParam(param_name, param_ty))
            if not self.at(TokenKind.RPAREN):
                self.expect(TokenKind.COMMA, "parameter list")
        self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.MINUS, "execution annotation")
        self.expect(TokenKind.LBRACKET, "execution annotation")
        exec_name = self.expect_ident("execution resource name")
        self.expect(TokenKind.COLON, "execution annotation")
        level = self._parse_exec_level()
        self.expect(TokenKind.RBRACKET, "execution annotation")
        self.expect(TokenKind.ARROW, "return type")
        ret = self.parse_type()
        body = self.parse_block()
        return T.FunDef(
            name=name,
            generics=tuple(generics),
            params=tuple(params),
            exec_spec=ExecSpec(exec_name, level),
            ret=ret,
            body=body,
            span=start,
        )

    def _parse_generics(self) -> List[GenericParam]:
        generics: List[GenericParam] = []
        if not self.at(TokenKind.LANGLE):
            return generics
        self.advance()
        while not self.at(TokenKind.RANGLE):
            name = self.expect_ident("generic parameter")
            self.expect(TokenKind.COLON, "generic parameter kind")
            kind_index = self.expect(TokenKind.IDENT, "generic parameter kind")
            kind_name = self.texts[kind_index]
            if kind_name not in _KINDS:
                raise self.error(f"unknown kind `{kind_name}`", self.span(kind_index))
            generics.append(GenericParam(name, _KINDS[kind_name]))
            if not self.at(TokenKind.RANGLE):
                self.expect(TokenKind.COMMA, "generic parameters")
        self.expect(TokenKind.RANGLE)
        return generics

    def _parse_dotted_name(self) -> str:
        first = self.expect_ident()
        if self.at(TokenKind.DOT) and self.at(TokenKind.IDENT, 1):
            self.advance()
            second = self.expect_ident()
            return f"{first}.{second}"
        return first

    def _parse_exec_level(self):
        first = self.pos
        name = self._parse_dotted_name().lower()
        if name == "cpu.thread":
            return CpuThreadLevel()
        if name == "gpu.thread":
            return GpuThreadLevel()
        if name == "gpu.grid":
            self.expect(TokenKind.LANGLE, "grid shape")
            blocks = self._parse_dim()
            self.expect(TokenKind.COMMA, "grid shape")
            threads = self._parse_dim()
            self.expect(TokenKind.RANGLE, "grid shape")
            return GpuGridLevel(blocks, threads)
        if name == "gpu.block":
            self.expect(TokenKind.LANGLE, "block shape")
            threads = self._parse_dim()
            self.expect(TokenKind.RANGLE, "block shape")
            return GpuBlockLevel(threads)
        raise self.error(f"unknown execution level `{name}`", self.span_from(first))

    def _parse_dim(self) -> Dim:
        spec = self.expect_ident("dimension specification")
        self.expect(TokenKind.LANGLE, "dimension sizes")
        sizes: List[Nat] = [self.parse_nat()]
        while self.at(TokenKind.COMMA):
            self.advance()
            sizes.append(self.parse_nat())
        self.expect(TokenKind.RANGLE, "dimension sizes")
        return dim_from_spec(spec, sizes)

    # ------------------------------------------------------------------
    # types and nats
    # ------------------------------------------------------------------

    def parse_type(self) -> DataType:
        ty = self._parse_type_prefix()
        if self.at(TokenKind.AT):
            self.advance()
            mem = memory_from_name(self._parse_dotted_name())
            return AtType(ty, mem)
        return ty

    def _parse_type_prefix(self) -> DataType:
        kind = self.peek()
        if kind is TokenKind.AMP:
            self.advance()
            uniq = False
            if self.at_keyword("uniq"):
                self.advance()
                uniq = True
            mem = memory_from_name(self._parse_dotted_name())
            referent = self.parse_type()
            return RefType(uniq, mem, referent)
        if kind is TokenKind.LBRACKET:
            return self._parse_array_type()
        if kind is TokenKind.LPAREN:
            self.advance()
            if self.at(TokenKind.RPAREN):
                self.advance()
                return UNIT
            elems = [self.parse_type()]
            while self.at(TokenKind.COMMA):
                self.advance()
                elems.append(self.parse_type())
            self.expect(TokenKind.RPAREN, "tuple type")
            if len(elems) == 1:
                return elems[0]
            return TupleType(tuple(elems))
        if kind is TokenKind.IDENT:
            name = self.texts[self.advance()]
            if is_scalar_name(name):
                return scalar_from_name(name)
            return TyVar(name)
        raise self.error(f"expected a type, found `{self.texts[self.pos]}`", self.span(self.pos))

    def _parse_array_type(self) -> DataType:
        self.expect(TokenKind.LBRACKET)
        first = self.pos
        inner = self.parse_type()
        if self.at(TokenKind.SEMI):
            self.advance()
            size = self.parse_nat()
            self.expect(TokenKind.RBRACKET, "array type")
            return ArrayType(inner, size)
        if self.at(TokenKind.RBRACKET):
            # `[[T; n]]`: view type written as a doubly bracketed array
            if not isinstance(inner, (ArrayType, ArrayViewType)):
                raise self.error("`[[...]]` must contain an array type", self.span_from(first))
            self.advance()
            if isinstance(inner, ArrayType):
                return ArrayViewType(inner.elem, inner.size)
            return inner
        raise self.error("expected `;` or `]` in array type", self.span(self.pos))

    def parse_nat(self) -> Nat:
        return self._parse_nat_additive()

    def _parse_nat_additive(self) -> Nat:
        left = self._parse_nat_multiplicative()
        while self.at(TokenKind.PLUS) or self.at(TokenKind.MINUS):
            op = self.texts[self.advance()]
            right = self._parse_nat_multiplicative()
            left = NatBinOp(op, left, right)
        return left

    def _parse_nat_multiplicative(self) -> Nat:
        left = self._parse_nat_power()
        while self.at(TokenKind.STAR) or self.at(TokenKind.SLASH) or self.at(TokenKind.PERCENT):
            op = self.texts[self.advance()]
            right = self._parse_nat_power()
            left = NatBinOp(op, left, right)
        return left

    def _parse_nat_power(self) -> Nat:
        left = self._parse_nat_atom()
        if self.at(TokenKind.CARET):
            self.advance()
            right = self._parse_nat_power()
            return NatBinOp("^", left, right)
        return left

    def _parse_nat_atom(self) -> Nat:
        index = self.pos
        kind = self.kinds[index]
        if kind is TokenKind.INT:
            self.advance()
            return NatConst(int(self.texts[index]))
        if kind is TokenKind.IDENT:
            self.advance()
            return NatVar(self.texts[index])
        if kind is TokenKind.LPAREN:
            self.advance()
            nat = self.parse_nat()
            self.expect(TokenKind.RPAREN, "nat expression")
            return nat
        raise self.error(f"expected a natural number, found `{self.texts[index]}`", self.span(index))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_block(self) -> T.Block:
        start = self.span(self.expect(TokenKind.LBRACE, "block"))
        stmts: List[T.Term] = []
        while not self.at(TokenKind.RBRACE):
            stmts.append(self.parse_stmt())
            while self.at(TokenKind.SEMI):
                self.advance()
        self.expect(TokenKind.RBRACE, "block")
        return T.Block(tuple(stmts), span=start)

    def parse_stmt(self) -> T.Term:
        index = self.pos
        word = self.texts[index]
        if word == "let":
            return self._parse_let()
        if word == "for":
            return self._parse_for()
        if word == "if":
            return self._parse_if()
        if word == "sched":
            return self._parse_sched()
        if word == "split":
            return self._parse_split()
        if word == "sync":
            return T.Sync(span=self.span(self.advance()))
        if self.kinds[index] is TokenKind.LBRACE:
            return self.parse_block()
        expr = self.parse_expr()
        if self.at(TokenKind.EQ):
            eq = self.advance()
            if not isinstance(expr, T.PlaceTerm):
                raise self.error("left-hand side of assignment must be a place expression", self.span(eq))
            value = self.parse_expr()
            return T.Assign(expr.place, value, span=self.span(index))
        return expr

    def _parse_let(self) -> T.Term:
        start = self.span(self.expect_keyword("let"))
        name = self.expect_ident("let binding")
        ty: Optional[DataType] = None
        if self.at(TokenKind.COLON):
            self.advance()
            ty = self.parse_type()
        self.expect(TokenKind.EQ, "let binding")
        init = self.parse_expr()
        return T.LetTerm(name, ty, init, span=start)

    def _parse_for(self) -> T.Term:
        start = self.span(self.expect_keyword("for"))
        variable = self.expect_ident("loop variable")
        self.expect_keyword("in", "for loop")
        if self.at(TokenKind.LBRACKET):
            self.advance()
            lo = self.parse_nat()
            self.expect(TokenKind.DOTDOT, "nat range")
            hi = self.parse_nat()
            self.expect(TokenKind.RBRACKET, "nat range")
            body = self.parse_block()
            return T.ForNat(variable, lo, hi, body, span=start)
        collection = self.parse_expr()
        body = self.parse_block()
        return T.ForEach(variable, collection, body, span=start)

    def _parse_if(self) -> T.Term:
        start = self.span(self.expect_keyword("if"))
        cond = self.parse_expr()
        then = self.parse_block()
        otherwise = None
        if self.at_keyword("else"):
            self.advance()
            otherwise = self.parse_block()
        return T.IfTerm(cond, then, otherwise, span=start)

    def _parse_sched(self) -> T.Term:
        start = self.span(self.expect_keyword("sched"))
        self.expect(TokenKind.LPAREN, "sched dimensions")
        dims: List[DimName] = [parse_dim_name(self.expect_ident())]
        while self.at(TokenKind.COMMA):
            self.advance()
            dims.append(parse_dim_name(self.expect_ident()))
        self.expect(TokenKind.RPAREN, "sched dimensions")
        binder = self.expect_ident("sched binder")
        self.expect_keyword("in", "sched")
        exec_name = self.expect_ident("sched execution resource")
        body = self.parse_block()
        return T.Sched(tuple(dims), binder, exec_name, body, span=start)

    def _parse_split(self) -> T.Term:
        start = self.span(self.expect_keyword("split"))
        self.expect(TokenKind.LPAREN, "split dimension")
        dim = parse_dim_name(self.expect_ident())
        self.expect(TokenKind.RPAREN, "split dimension")
        exec_name = self.expect_ident("split execution resource")
        self.expect_keyword("at", "split position")
        pos = self.parse_nat()
        self.expect(TokenKind.LBRACE, "split branches")
        first_binder = self.expect_ident("split branch")
        self.expect(TokenKind.FATARROW, "split branch")
        first_body = self.parse_block()
        self.expect(TokenKind.COMMA, "split branches")
        second_binder = self.expect_ident("split branch")
        self.expect(TokenKind.FATARROW, "split branch")
        second_body = self.parse_block()
        if self.at(TokenKind.COMMA):
            self.advance()
        self.expect(TokenKind.RBRACE, "split branches")
        return T.SplitExec(
            dim, exec_name, pos, first_binder, first_body, second_binder, second_body, span=start
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> T.Term:
        return self._parse_or()

    def _parse_or(self) -> T.Term:
        left = self._parse_and()
        while self.at(TokenKind.PIPEPIPE):
            span = self.span(self.advance())
            left = T.BinaryOp("||", left, self._parse_and(), span=span)
        return left

    def _parse_and(self) -> T.Term:
        left = self._parse_comparison()
        while self.at(TokenKind.AMPAMP):
            span = self.span(self.advance())
            left = T.BinaryOp("&&", left, self._parse_comparison(), span=span)
        return left

    def _parse_comparison(self) -> T.Term:
        left = self._parse_additive()
        op = self.texts[self.pos]
        if op in _COMPARISONS:
            span = self.span(self.advance())
            return T.BinaryOp(op, left, self._parse_additive(), span=span)
        return left

    def _parse_additive(self) -> T.Term:
        left = self._parse_multiplicative()
        while self.at(TokenKind.PLUS) or self.at(TokenKind.MINUS):
            op = self.advance()
            left = T.BinaryOp(self.texts[op], left, self._parse_multiplicative(), span=self.span(op))
        return left

    def _parse_multiplicative(self) -> T.Term:
        left = self._parse_unary()
        while self.at(TokenKind.STAR) or self.at(TokenKind.SLASH) or self.at(TokenKind.PERCENT):
            op = self.advance()
            left = T.BinaryOp(self.texts[op], left, self._parse_unary(), span=self.span(op))
        return left

    def _parse_unary(self) -> T.Term:
        index = self.pos
        kind = self.kinds[index]
        if kind is TokenKind.MINUS:
            self.advance()
            return T.UnaryOp("-", self._parse_unary(), span=self.span(index))
        if kind is TokenKind.BANG:
            self.advance()
            return T.UnaryOp("!", self._parse_unary(), span=self.span(index))
        if kind is TokenKind.AMP:
            self.advance()
            uniq = False
            if self.at_keyword("uniq"):
                self.advance()
                uniq = True
            place = self._parse_place_operand()
            return T.Borrow(uniq, place, span=self.span(index))
        if kind is TokenKind.STAR:
            self.advance()
            place = self._parse_place_operand()
            span = self.span(index)
            deref = PDeref(place, span=span)
            return T.PlaceTerm(self._parse_place_suffixes(deref), span=span)
        return self._parse_postfix()

    def _parse_place_operand(self) -> PlaceExpr:
        first = self.pos
        term = self._parse_unary()
        if isinstance(term, T.PlaceTerm):
            return term.place
        raise self.error("expected a place expression", self.span_from(first))

    def _parse_postfix(self) -> T.Term:
        index = self.pos
        kind = self.kinds[index]
        word = self.texts[index]
        if kind is TokenKind.INT:
            self.advance()
            return T.Lit(int(word), I32, span=self.span(index))
        if kind is TokenKind.FLOAT:
            self.advance()
            return T.Lit(float(word), F64, span=self.span(index))
        if word == "true":
            self.advance()
            return T.Lit(True, BOOL, span=self.span(index))
        if word == "false":
            self.advance()
            return T.Lit(False, BOOL, span=self.span(index))
        if kind is TokenKind.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenKind.RPAREN, "parenthesised expression")
            return expr
        if word == "alloc":
            return self._parse_alloc()
        if kind is TokenKind.IDENT:
            return self._parse_name_expression()
        raise self.error(f"unexpected token `{word}` in expression", self.span(index))

    def _parse_alloc(self) -> T.Term:
        start = self.span(self.expect_keyword("alloc"))
        self.expect(TokenKind.COLONCOLON, "alloc")
        self.expect(TokenKind.LANGLE, "alloc")
        mem = memory_from_name(self._parse_dotted_name())
        self.expect(TokenKind.COMMA, "alloc")
        ty = self.parse_type()
        self.expect(TokenKind.RANGLE, "alloc")
        self.expect(TokenKind.LPAREN, "alloc")
        self.expect(TokenKind.RPAREN, "alloc")
        return T.Alloc(mem, ty, span=start)

    def _parse_name_expression(self) -> T.Term:
        start = self.span(self.pos)
        name = self.expect_ident()

        # multi-segment function names such as `CpuHeap::new`
        while self.at(TokenKind.COLONCOLON) and self.at(TokenKind.IDENT, 1):
            self.advance()
            name += "::" + self.expect_ident()

        nat_args: Tuple[Nat, ...] = ()
        mem_args: tuple = ()
        ty_args: tuple = ()
        if self.at(TokenKind.COLONCOLON):
            # `::<...>` generic arguments or `::<<<...>>>` launch
            if self.at(TokenKind.LANGLE, 1) and self.at(TokenKind.LANGLE, 2) and self.at(TokenKind.LANGLE, 3):
                self.advance()
                return self._parse_launch(name, nat_args, start)
            self.advance()
            nat_args, mem_args, ty_args = self._parse_generic_args()
            if self.at(TokenKind.LANGLE) and self.at(TokenKind.LANGLE, 1) and self.at(TokenKind.LANGLE, 2):
                return self._parse_launch(name, nat_args, start)

        if self.at(TokenKind.LPAREN):
            self.advance()
            args: List[T.Term] = []
            while not self.at(TokenKind.RPAREN):
                args.append(self.parse_expr())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "call arguments")
            self.expect(TokenKind.RPAREN, "call arguments")
            return T.FnApp(name, nat_args, mem_args, ty_args, tuple(args), span=start)

        if nat_args or mem_args or ty_args:
            raise self.error("generic arguments must be followed by a call", start)

        place = self._parse_place_suffixes(PVar(name, span=start))
        return T.PlaceTerm(place, span=start)

    def _parse_generic_args(self) -> Tuple[Tuple[Nat, ...], tuple, tuple]:
        self.expect(TokenKind.LANGLE, "generic arguments")
        nat_args: List[Nat] = []
        mem_args: List = []
        ty_args: List = []
        while not self.at(TokenKind.RANGLE):
            kind = self.peek()
            word = self.texts[self.pos]
            if kind is TokenKind.IDENT and word in _MEMORY_ROOTS and self.at(TokenKind.DOT, 1):
                mem_args.append(memory_from_name(self._parse_dotted_name()))
            elif kind is TokenKind.LBRACKET or kind is TokenKind.AMP or (
                kind is TokenKind.IDENT and is_scalar_name(word)
            ):
                ty_args.append(self.parse_type())
            else:
                nat_args.append(self.parse_nat())
            if not self.at(TokenKind.RANGLE):
                self.expect(TokenKind.COMMA, "generic arguments")
        self.expect(TokenKind.RANGLE, "generic arguments")
        return tuple(nat_args), tuple(mem_args), tuple(ty_args)

    def _parse_launch(self, name: str, nat_args: Tuple[Nat, ...], start: Span) -> T.Term:
        for _ in range(3):
            self.expect(TokenKind.LANGLE, "kernel launch")
        grid_dim = self._parse_dim()
        self.expect(TokenKind.COMMA, "kernel launch")
        block_dim = self._parse_dim()
        for _ in range(3):
            self.expect(TokenKind.RANGLE, "kernel launch")
        self.expect(TokenKind.LPAREN, "kernel launch arguments")
        args: List[T.Term] = []
        while not self.at(TokenKind.RPAREN):
            args.append(self.parse_expr())
            if not self.at(TokenKind.RPAREN):
                self.expect(TokenKind.COMMA, "kernel launch arguments")
        self.expect(TokenKind.RPAREN, "kernel launch arguments")
        return T.KernelLaunch(name, grid_dim, block_dim, nat_args, tuple(args), span=start)

    # -- place suffixes -----------------------------------------------------------
    def _parse_place_suffixes(self, place: PlaceExpr) -> PlaceExpr:
        while True:
            if self.at(TokenKind.DOT):
                place = self._parse_dot_suffix(place)
                continue
            if self.at(TokenKind.LBRACKET):
                if self.at(TokenKind.LBRACKET, 1):
                    self.advance()
                    self.advance()
                    exec_var = self.expect_ident("select")
                    self.expect(TokenKind.RBRACKET, "select")
                    self.expect(TokenKind.RBRACKET, "select")
                    place = PSelect(place, exec_var)
                    continue
                self.advance()
                index = self.parse_nat()
                self.expect(TokenKind.RBRACKET, "index")
                place = PIdx(place, index)
                continue
            return place

    def _parse_dot_suffix(self, place: PlaceExpr) -> PlaceExpr:
        self.expect(TokenKind.DOT)
        name = self.expect_ident("view or projection")
        if name == "fst":
            return PProj(place, 0)
        if name == "snd":
            return PProj(place, 1)
        nat_args: List[Nat] = []
        view_args: List[ViewRef] = []
        if self.at(TokenKind.COLONCOLON):
            self.advance()
            self.expect(TokenKind.LANGLE, "view arguments")
            while not self.at(TokenKind.RANGLE):
                nat_args.append(self.parse_nat())
                if not self.at(TokenKind.RANGLE):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RANGLE, "view arguments")
        if self.at(TokenKind.LPAREN):
            self.advance()
            while not self.at(TokenKind.RPAREN):
                view_args.append(self._parse_view_ref())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RPAREN, "view arguments")
        return PView(place, ViewRef(name, tuple(nat_args), tuple(view_args)))

    def _parse_view_ref(self) -> ViewRef:
        name = self.expect_ident("view")
        nat_args: List[Nat] = []
        view_args: List[ViewRef] = []
        if self.at(TokenKind.COLONCOLON):
            self.advance()
            self.expect(TokenKind.LANGLE, "view arguments")
            while not self.at(TokenKind.RANGLE):
                nat_args.append(self.parse_nat())
                if not self.at(TokenKind.RANGLE):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RANGLE, "view arguments")
        if self.at(TokenKind.LPAREN):
            self.advance()
            while not self.at(TokenKind.RPAREN):
                view_args.append(self._parse_view_ref())
                if not self.at(TokenKind.RPAREN):
                    self.expect(TokenKind.COMMA, "view arguments")
            self.expect(TokenKind.RPAREN, "view arguments")
        return ViewRef(name, tuple(nat_args), tuple(view_args))


def parse_program(source: Union[str, SourceFile], name: str = "<descend>") -> T.Program:
    """Parse Descend source into a program AST.

    ``source`` is the text of a file called ``name``, or a :class:`SourceFile`
    that the caller also hands to the type checker.
    """
    if isinstance(source, str):
        source = SourceFile(source, name)
    return Parser(source).parse_program()
