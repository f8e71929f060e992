"""The typing rules of Descend.

:class:`TypeChecker` implements the flow-sensitive typing judgement of
Section 4 for whole programs, functions, and every term of Figure 5.  The
GPU-specific safety checks (narrowing, access conflicts, borrow checking) are
delegated to :mod:`repro.descend.typeck.access_check`; the structural typing
of place expressions to :mod:`repro.descend.typeck.place_typing`.

The checker is eager: the first violation raises a
:class:`~repro.errors.DescendTypeError` carrying a diagnostic with the error
code and labels used to render the messages shown in Section 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim, DimName
from repro.descend.ast.exec_level import (
    CpuThreadLevel,
    ExecSpec,
    GpuBlockLevel,
    GpuGridLevel,
    GpuThreadLevel,
)
from repro.descend.ast.exec_resources import (
    CpuThreadRes,
    ExecResource,
    ForallRes,
    GpuGridRes,
    make_split,
)
from repro.descend.ast.memory import CPU_MEM, GPU_GLOBAL, Memory
from repro.descend.ast.places import PVar
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    BOOL,
    DataType,
    F32,
    F64,
    FnType,
    I32,
    Kind,
    RefType,
    ScalarType,
    UNIT,
    assignable,
    types_equal,
)
from repro.descend.diagnostics import Diagnostic, DiagnosticBag
from repro.descend.nat import Nat, nat_le
from repro.descend.source import NO_SPAN, SourceFile, Span
from repro.descend.typeck.access_check import SHRD, UNIQ, access_safety_check
from repro.descend.typeck.context import (
    GlobalEnv,
    Loan,
    SchedFrame,
    TypingContext,
    VarInfo,
)
from repro.descend.typeck.place_typing import PlaceInfo, type_place
from repro.errors import DescendError, DescendTypeError


#: Built-in host operations of the prelude (handled specially by the checker).
BUILTIN_FUNCTIONS = (
    "CpuHeap::new",
    "GpuGlobal::alloc",
    "GpuGlobal::alloc_copy",
    "copy_mem_to_host",
    "copy_mem_to_gpu",
)


@dataclass
class CheckedProgram:
    """A program that passed type checking, plus collected warnings."""

    program: T.Program
    fn_types: Dict[str, FnType]
    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)

    def fun(self, name: str) -> T.FunDef:
        return self.program.fun(name)


def check_program(program: T.Program, source: Optional[SourceFile] = None) -> CheckedProgram:
    """Type check a whole program; raises :class:`DescendTypeError` on failure."""
    return TypeChecker(program, source).check()


class TypeChecker:
    """Type checks Descend programs."""

    def __init__(self, program: T.Program, source: Optional[SourceFile] = None) -> None:
        self.program = program
        self.source = source
        self.globals = GlobalEnv()
        self.diagnostics = DiagnosticBag()

    # ------------------------------------------------------------------
    # Programs and functions
    # ------------------------------------------------------------------

    def check(self) -> CheckedProgram:
        fn_types: Dict[str, FnType] = {}
        for fun_def in self.program.fun_defs:
            if self.globals.known(fun_def.name):
                raise DescendTypeError(
                    f"function `{fun_def.name}` is defined twice",
                    Diagnostic.error("E0009", f"function `{fun_def.name}` is defined twice", fun_def.span),
                )
            fn_type = fun_def.fn_type()
            self.globals.declare(fun_def.name, fn_type)
            fn_types[fun_def.name] = fn_type
        for fun_def in self.program.fun_defs:
            self.check_fun(fun_def)
        return CheckedProgram(self.program, fn_types, self.diagnostics)

    def _root_exec(self, exec_spec: ExecSpec) -> ExecResource:
        level = exec_spec.level
        if isinstance(level, CpuThreadLevel):
            return CpuThreadRes()
        if isinstance(level, GpuGridLevel):
            return GpuGridRes(level.blocks, level.threads)
        if isinstance(level, GpuBlockLevel):
            # A block-level function is checked as if the grid had already been
            # scheduled over its (symbolic) blocks.
            grid = GpuGridRes(Dim.of(x="__blocks"), level.threads)
            return ForallRes(grid, (DimName.X,))
        if isinstance(level, GpuThreadLevel):
            grid = GpuGridRes(Dim.of(x="__blocks"), Dim.of(x="__threads"))
            return ForallRes(ForallRes(grid, (DimName.X,)), (DimName.X,))
        raise DescendTypeError(f"unsupported execution level {level}")

    def check_fun(self, fun_def: T.FunDef) -> None:
        ctx = TypingContext(
            globals_env=self.globals,
            exec_spec=fun_def.exec_spec,
            root_exec=self._root_exec(fun_def.exec_spec),
            source=self.source,
        )
        for generic in fun_def.generics:
            ctx.kinds.declare(generic.name, generic.kind)
        for param in fun_def.params:
            ctx.locals.declare(
                VarInfo(
                    name=param.name,
                    ty=param.ty,
                    owner_depth=0,
                    mem=None,
                    is_param=True,
                    span=param.span,
                )
            )
        body_ty = self.check_term(ctx, fun_def.body)
        if not types_equal(fun_def.ret, UNIT) and not assignable(fun_def.ret, body_ty):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    f"mismatched types: function `{fun_def.name}` returns `{fun_def.ret}` "
                    f"but its body has type `{body_ty}`",
                    fun_def.span,
                )
            )

    # ------------------------------------------------------------------
    # Terms
    # ------------------------------------------------------------------

    def check_term(self, ctx: TypingContext, term: T.Term) -> DataType:
        if isinstance(term, T.Lit):
            return term.ty
        if isinstance(term, T.NatTerm):
            return I32
        if isinstance(term, T.PlaceTerm):
            return self._check_place_read(ctx, term)
        if isinstance(term, T.BinaryOp):
            return self._check_binary(ctx, term)
        if isinstance(term, T.UnaryOp):
            return self._check_unary(ctx, term)
        if isinstance(term, T.Borrow):
            return self._check_borrow(ctx, term)
        if isinstance(term, T.LetTerm):
            return self._check_let(ctx, term)
        if isinstance(term, T.Assign):
            return self._check_assign(ctx, term)
        if isinstance(term, T.Block):
            return self._check_block(ctx, term)
        if isinstance(term, T.IfTerm):
            return self._check_if(ctx, term)
        if isinstance(term, T.ForNat):
            return self._check_for_nat(ctx, term)
        if isinstance(term, T.ForEach):
            return self._check_for_each(ctx, term)
        if isinstance(term, T.Sched):
            return self._check_sched(ctx, term)
        if isinstance(term, T.SplitExec):
            return self._check_split(ctx, term)
        if isinstance(term, T.Sync):
            return self._check_sync(ctx, term)
        if isinstance(term, T.Alloc):
            return self._check_alloc(ctx, term)
        if isinstance(term, T.ArrayInit):
            return self._check_array_init(ctx, term)
        if isinstance(term, T.FnApp):
            return self._check_fn_app(ctx, term)
        if isinstance(term, T.KernelLaunch):
            return self._check_kernel_launch(ctx, term)
        raise DescendTypeError(f"cannot type check term {term!r}")

    # -- reads, writes, borrows ------------------------------------------------

    def _check_memory_context(self, ctx: TypingContext, info: PlaceInfo, span: Span) -> None:
        """References must only be dereferenced in the correct execution context."""
        mem_name = str(info.mem)
        if ctx.exec_spec.is_gpu() and mem_name == "cpu.mem":
            diagnostic = Diagnostic.error(
                "E0004",
                f"cannot dereference `{info.place}` pointing to `cpu.mem`",
                span,
                label="dereferencing pointer to `cpu.mem` memory",
            )
            diagnostic.with_label(
                NO_SPAN,
                f"this code is executed by `{ctx.current_exec.describe()}`",
                primary=False,
            )
            raise ctx.error(diagnostic)
        if not ctx.exec_spec.is_gpu() and mem_name in ("gpu.global", "gpu.shared", "gpu.local"):
            raise ctx.error(
                Diagnostic.error(
                    "E0004",
                    f"cannot access `{info.place}` in `{mem_name}` from the CPU",
                    span,
                    label="GPU memory can only be accessed by GPU code "
                    "(use `copy_mem_to_host` to read it on the host)",
                )
            )

    def _check_place_read(self, ctx: TypingContext, term: T.PlaceTerm) -> DataType:
        info = type_place(ctx, term.place, term.span)
        if info.ty.is_copyable():
            self._check_memory_context(ctx, info, term.span)
            access_safety_check(ctx, info, SHRD, term.span)
            return info.ty
        # Non-copyable values are moved; only whole variables can be moved out of.
        if not isinstance(term.place, PVar):
            raise ctx.error(
                Diagnostic.error(
                    "E0007",
                    f"cannot move out of `{term.place}`",
                    term.span,
                    label="only whole variables can be moved; consider borrowing instead",
                )
            )
        access_safety_check(ctx, info, UNIQ, term.span)
        ctx.locals.mark_moved(term.place.name)
        return info.ty

    def _check_borrow(self, ctx: TypingContext, term: T.Borrow) -> DataType:
        info = type_place(ctx, term.place, term.span)
        if term.uniq and not info.writable:
            raise ctx.error(
                Diagnostic.error(
                    "E0014",
                    f"cannot borrow `{term.place}` as unique through a shared reference",
                    term.span,
                )
            )
        access_safety_check(ctx, info, UNIQ if term.uniq else SHRD, term.span)
        ctx.locals.add_loan(
            Loan(
                place=term.place,
                uniq=term.uniq,
                root=info.root_name,
                mem=info.mem,
                depth=ctx.sched_depth,
                span=term.span,
            )
        )
        return RefType(term.uniq, info.mem, info.ty)

    def _check_assign(self, ctx: TypingContext, term: T.Assign) -> DataType:
        value_ty = self.check_term(ctx, term.value)
        info = type_place(ctx, term.place, term.span)
        self._check_memory_context(ctx, info, term.span)
        if not info.writable:
            raise ctx.error(
                Diagnostic.error(
                    "E0014",
                    f"cannot assign to `{term.place}`, which is behind a shared reference",
                    term.span,
                    label="writing requires a unique (`&uniq`) reference",
                )
            )
        if not assignable(info.ty, value_ty):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    "mismatched types in assignment",
                    term.span,
                    label=f"expected `{info.ty}`, found `{value_ty}`",
                )
            )
        access_safety_check(ctx, info, UNIQ, term.span)
        return UNIT

    # -- expressions -------------------------------------------------------------

    _ARITH_OPS = ("+", "-", "*", "/", "%")
    _COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
    _LOGIC_OPS = ("&&", "||")

    def _check_binary(self, ctx: TypingContext, term: T.BinaryOp) -> DataType:
        lhs = self.check_term(ctx, term.lhs)
        rhs = self.check_term(ctx, term.rhs)
        if term.op in self._LOGIC_OPS:
            if not (types_equal(lhs, BOOL) and types_equal(rhs, BOOL)):
                raise self._binary_error(ctx, term, lhs, rhs)
            return BOOL
        if not (isinstance(lhs, ScalarType) and isinstance(rhs, ScalarType)):
            raise self._binary_error(ctx, term, lhs, rhs)
        if not (lhs.is_numeric() and rhs.is_numeric()):
            raise self._binary_error(ctx, term, lhs, rhs)
        if lhs.is_float() != rhs.is_float():
            raise self._binary_error(ctx, term, lhs, rhs)
        if term.op in self._COMPARE_OPS:
            return BOOL
        if term.op in self._ARITH_OPS:
            # float types unify to the wider one; integers keep the lhs type
            if lhs.is_float():
                return F64 if "f64" in (lhs.name, rhs.name) else F32
            return lhs
        raise ctx.error(
            Diagnostic.error("E0011", f"unsupported binary operator `{term.op}`", term.span)
        )

    def _binary_error(self, ctx: TypingContext, term: T.BinaryOp, lhs: DataType, rhs: DataType):
        return ctx.error(
            Diagnostic.error(
                "E0011",
                f"invalid operands for `{term.op}`",
                term.span,
                label=f"left operand has type `{lhs}`, right operand has type `{rhs}`",
            )
        )

    def _check_unary(self, ctx: TypingContext, term: T.UnaryOp) -> DataType:
        operand = self.check_term(ctx, term.operand)
        if term.op == "!":
            if not types_equal(operand, BOOL):
                raise ctx.error(
                    Diagnostic.error("E0011", "`!` expects a boolean operand", term.span)
                )
            return BOOL
        if term.op == "-":
            if not (isinstance(operand, ScalarType) and operand.is_numeric()):
                raise ctx.error(
                    Diagnostic.error("E0011", "unary `-` expects a numeric operand", term.span)
                )
            return operand
        raise ctx.error(
            Diagnostic.error("E0011", f"unsupported unary operator `{term.op}`", term.span)
        )

    # -- bindings and blocks --------------------------------------------------------

    def _check_let(self, ctx: TypingContext, term: T.LetTerm) -> DataType:
        init_ty = self.check_term(ctx, term.init)
        if term.ty is not None and not assignable(term.ty, init_ty):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    f"mismatched types in `let {term.name}`",
                    term.span,
                    label=f"expected `{term.ty}`, found `{init_ty}`",
                )
            )
        declared_ty = term.ty if term.ty is not None else init_ty
        mem: Optional[Memory] = None
        if isinstance(term.init, T.Alloc):
            mem = term.init.mem
        ctx.locals.declare(
            VarInfo(
                name=term.name,
                ty=declared_ty,
                owner_depth=ctx.sched_depth,
                mem=mem,
                span=term.span,
            )
        )
        return UNIT

    def _check_block(self, ctx: TypingContext, term: T.Block) -> DataType:
        ctx.locals.push_scope()
        last_ty: DataType = UNIT
        try:
            for stmt in term.stmts:
                loans_before = len(ctx.locals.active_loans())
                last_ty = self.check_term(ctx, stmt)
                keep_loans = isinstance(stmt, T.LetTerm) and isinstance(stmt.init, T.Borrow)
                if not keep_loans:
                    self._truncate_loans(ctx, loans_before)
        finally:
            ctx.locals.pop_scope()
        return last_ty

    @staticmethod
    def _truncate_loans(ctx: TypingContext, count: int) -> None:
        """Release temporary borrows created while checking a statement (Θ)."""
        loans = ctx.locals._loan_scopes[-1]
        total = len(ctx.locals.active_loans())
        excess = total - count
        if excess > 0:
            del loans[len(loans) - excess:]

    def _check_if(self, ctx: TypingContext, term: T.IfTerm) -> DataType:
        cond_ty = self.check_term(ctx, term.cond)
        if not types_equal(cond_ty, BOOL):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    "the condition of an `if` must be a boolean",
                    term.span,
                    label=f"found `{cond_ty}`",
                )
            )
        self.check_term(ctx, term.then)
        if term.otherwise is not None:
            self.check_term(ctx, term.otherwise)
        return UNIT

    # -- loops ------------------------------------------------------------------------

    def _check_for_nat(self, ctx: TypingContext, term: T.ForNat) -> DataType:
        self._check_nat_wellformed(ctx, term.lo, term.span)
        self._check_nat_wellformed(ctx, term.hi, term.span)
        already_bound = ctx.kinds.kind_of(term.var)
        ctx.kinds.declare(term.var, Kind.NAT)
        try:
            self.check_term(ctx, term.body)
            # Second pass: catch conflicts between accesses of *different* loop
            # iterations (which need a barrier in between).
            previous = ctx.loop_recheck
            ctx.loop_recheck = True
            try:
                self.check_term(ctx, term.body)
            finally:
                ctx.loop_recheck = previous
        finally:
            if already_bound is not None:
                ctx.kinds.declare(term.var, already_bound)
            else:
                ctx.kinds.remove(term.var)
        return UNIT

    def _check_for_each(self, ctx: TypingContext, term: T.ForEach) -> DataType:
        collection_ty = self.check_term(ctx, term.collection)
        if not isinstance(collection_ty, (ArrayType, ArrayViewType)):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    "`for ... in` expects an array or view",
                    term.span,
                    label=f"found `{collection_ty}`",
                )
            )
        ctx.locals.push_scope()
        ctx.locals.declare(
            VarInfo(
                name=term.var,
                ty=collection_ty.elem,
                owner_depth=ctx.sched_depth,
                span=term.span,
            )
        )
        try:
            self.check_term(ctx, term.body)
        finally:
            ctx.locals.pop_scope()
        return UNIT

    def _check_nat_wellformed(self, ctx: TypingContext, nat: Nat, span: Span) -> None:
        for name in nat.free_vars():
            kind = ctx.kinds.kind_of(name)
            if kind is None:
                raise ctx.error(
                    Diagnostic.error(
                        "E0009",
                        f"unknown natural number variable `{name}`",
                        span,
                    )
                )
            if kind != Kind.NAT:
                raise ctx.error(
                    Diagnostic.error(
                        "E0012",
                        f"`{name}` is a `{kind}` variable but is used as a natural number",
                        span,
                    )
                )

    # -- the execution hierarchy ---------------------------------------------------------

    def _check_sched(self, ctx: TypingContext, term: T.Sched) -> DataType:
        resource = ctx.exec_of(term.exec_name)
        if resource is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0009",
                    f"unknown execution resource `{term.exec_name}`",
                    term.span,
                )
            )
        if term.exec_name != ctx.current_exec_binder:
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"cannot schedule over `{term.exec_name}` here",
                    term.span,
                    label=f"the code at this point is executed by `{ctx.current_exec_binder}`",
                )
            )
        if resource.base_grid() is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    "`sched` can only be used on GPU execution resources",
                    term.span,
                )
            )
        try:
            extents = resource.forall_extents(term.dims)
        except DescendError as exc:
            raise ctx.error(
                Diagnostic.error("E0010", f"illegal scheduling: {exc}", term.span)
            ) from None

        new_res = ForallRes(resource, term.dims)
        frame = SchedFrame(
            binder=term.binder,
            resource=new_res,
            extents=extents,
            depth=ctx.sched_depth + 1,
        )
        previous_exec = ctx.current_exec
        previous_binder = ctx.current_exec_binder
        ctx.push_sched_frame(frame)
        shadowed = ctx.bind_exec(term.binder, new_res)
        ctx.current_exec = new_res
        ctx.current_exec_binder = term.binder
        try:
            self.check_term(ctx, term.body)
        finally:
            ctx.current_exec = previous_exec
            ctx.current_exec_binder = previous_binder
            ctx.unbind_exec(term.binder, shadowed)
            ctx.pop_sched_frame()
        return UNIT

    def _check_split(self, ctx: TypingContext, term: T.SplitExec) -> DataType:
        resource = ctx.exec_of(term.exec_name)
        if resource is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0009", f"unknown execution resource `{term.exec_name}`", term.span
                )
            )
        if term.exec_name != ctx.current_exec_binder:
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"cannot split `{term.exec_name}` here",
                    term.span,
                    label=f"the code at this point is executed by `{ctx.current_exec_binder}`",
                )
            )
        if resource.base_grid() is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0010", "`split` can only be used on GPU execution resources", term.span
                )
            )
        pending = resource.pending_block_dims() or resource.pending_thread_dims()
        if term.dim not in pending:
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"cannot split dimension {term.dim}: it is not an unscheduled dimension "
                    f"of `{term.exec_name}`",
                    term.span,
                )
            )
        self._check_nat_wellformed(ctx, term.pos, term.span)
        extent = resource._extent_of(term.dim, over_blocks=bool(resource.pending_block_dims()))
        if nat_le(term.pos, extent) is False:
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"split position {term.pos} exceeds the extent {extent} of dimension {term.dim}",
                    term.span,
                )
            )

        first_res, second_res = make_split(resource, term.dim, term.pos)
        for binder, body, res in (
            (term.first_binder, term.first_body, first_res),
            (term.second_binder, term.second_body, second_res),
        ):
            previous_exec = ctx.current_exec
            previous_binder = ctx.current_exec_binder
            shadowed = ctx.bind_exec(binder, res)
            ctx.current_exec = res
            ctx.current_exec_binder = binder
            try:
                self.check_term(ctx, body)
            finally:
                ctx.current_exec = previous_exec
                ctx.current_exec_binder = previous_binder
                ctx.unbind_exec(binder, shadowed)
        return UNIT

    def _check_sync(self, ctx: TypingContext, term: T.Sync) -> DataType:
        resource = ctx.current_exec
        if resource.base_grid() is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0002",
                    "barrier not allowed here",
                    term.span,
                    label="`sync` can only be used in GPU code",
                )
            )
        if not resource.blocks_fully_scheduled():
            raise ctx.error(
                Diagnostic.error(
                    "E0002",
                    "barrier not allowed here",
                    term.span,
                    label="`sync` synchronises the threads of one block; schedule the "
                    "blocks of the grid first",
                )
            )
        if resource.has_thread_split():
            diagnostic = Diagnostic.error(
                "E0002",
                "barrier not allowed here",
                term.span,
                label="`sync` not performed by all threads in the block",
            )
            diagnostic.with_label(
                NO_SPAN,
                f"the block is split here: `{ctx.current_exec_binder}` only contains part "
                "of the block's threads",
                primary=False,
            )
            raise ctx.error(diagnostic)
        ctx.accesses.clear_for_sync()
        ctx.locals.release_shared_memory_loans()
        return UNIT

    # -- allocation --------------------------------------------------------------------

    def _check_alloc(self, ctx: TypingContext, term: T.Alloc) -> DataType:
        mem_name = str(term.mem)
        resource = ctx.current_exec
        if mem_name == "gpu.shared":
            if not ctx.exec_spec.is_gpu() or not resource.is_block_level():
                raise ctx.error(
                    Diagnostic.error(
                        "E0013",
                        "shared memory must be allocated at block level",
                        term.span,
                        label="allocate with `alloc::<gpu.shared, _>()` after scheduling "
                        "the blocks of the grid but before scheduling their threads",
                    )
                )
        elif mem_name == "gpu.local":
            if not ctx.exec_spec.is_gpu() or not resource.is_single_thread():
                raise ctx.error(
                    Diagnostic.error(
                        "E0013",
                        "private (gpu.local) memory must be allocated by a single thread",
                        term.span,
                    )
                )
        elif mem_name == "cpu.mem":
            if ctx.exec_spec.is_gpu():
                raise ctx.error(
                    Diagnostic.error(
                        "E0013",
                        "CPU memory cannot be allocated from GPU code",
                        term.span,
                    )
                )
        else:
            raise ctx.error(
                Diagnostic.error(
                    "E0013",
                    f"cannot allocate in memory space `{term.mem}`",
                    term.span,
                )
            )
        return term.ty

    def _check_array_init(self, ctx: TypingContext, term: T.ArrayInit) -> DataType:
        elem_ty = self.check_term(ctx, term.value)
        self._check_nat_wellformed(ctx, term.size, term.span)
        return ArrayType(elem_ty, term.size)

    # -- calls --------------------------------------------------------------------------

    def _check_fn_app(self, ctx: TypingContext, term: T.FnApp) -> DataType:
        if term.name in BUILTIN_FUNCTIONS:
            return self._check_builtin(ctx, term)
        fn_type = ctx.globals.lookup(term.name)
        if fn_type is None:
            raise ctx.error(
                Diagnostic.error(
                    "E0009", f"cannot find function `{term.name}`", term.span
                )
            )
        self._check_call_exec_level(ctx, fn_type, term.span, term.name)
        nat_subst, mem_subst, ty_subst = self._build_substitution(ctx, fn_type, term)
        arg_types = [self.check_term(ctx, arg) for arg in term.args]
        expected = [
            p.substitute(nat_subst, mem_subst, ty_subst) for p in fn_type.params
        ]
        if len(arg_types) != len(expected):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    f"`{term.name}` expects {len(expected)} argument(s), got {len(arg_types)}",
                    term.span,
                )
            )
        for index, (exp, found) in enumerate(zip(expected, arg_types)):
            if not assignable(exp, found):
                raise self._argument_error(ctx, term, index, exp, found)
        return fn_type.ret.substitute(nat_subst, mem_subst, ty_subst)

    def _argument_error(self, ctx, term, index, expected, found):
        label = f"expected `{expected}`, found `{found}`"
        if isinstance(expected, RefType) and isinstance(found, RefType) and str(expected.mem) != str(found.mem):
            label = (
                f"expected reference to `{expected.mem}`, found reference to `{found.mem}`"
            )
        return ctx.error(
            Diagnostic.error(
                "E0003" if "reference" in label else "E0011",
                "mismatched types",
                term.args[index].span if index < len(term.args) else term.span,
                label=label,
            )
        )

    def _check_call_exec_level(self, ctx: TypingContext, fn_type: FnType, span: Span, name: str) -> None:
        level = fn_type.exec_spec.level
        if isinstance(level, GpuGridLevel):
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{name}` is executed by a GPU grid and must be launched with "
                    f"`{name}::<<<...>>>(...)`",
                    span,
                )
            )
        if isinstance(level, CpuThreadLevel) and ctx.exec_spec.is_gpu():
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{name}` is a CPU function and cannot be called from GPU code",
                    span,
                )
            )
        if isinstance(level, GpuThreadLevel) and not ctx.current_exec.is_single_thread():
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{name}` must be called by a single GPU thread",
                    span,
                )
            )
        if isinstance(level, GpuBlockLevel) and not ctx.current_exec.is_block_level():
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{name}` must be called at block level",
                    span,
                )
            )

    def _build_substitution(
        self, ctx: TypingContext, fn_type: FnType, term: T.FnApp
    ) -> Tuple[Dict[str, Nat], Dict[str, Memory], Dict[str, DataType]]:
        nat_params = [g.name for g in fn_type.generics if g.kind == Kind.NAT]
        mem_params = [g.name for g in fn_type.generics if g.kind == Kind.MEMORY]
        ty_params = [g.name for g in fn_type.generics if g.kind == Kind.DATA_TYPE]
        if (
            len(nat_params) != len(term.nat_args)
            or len(mem_params) != len(term.mem_args)
            or len(ty_params) != len(term.ty_args)
        ):
            raise ctx.error(
                Diagnostic.error(
                    "E0012",
                    f"`{term.name}` expects {len(nat_params)} nat, {len(mem_params)} memory and "
                    f"{len(ty_params)} data-type argument(s)",
                    term.span,
                )
            )
        for nat in term.nat_args:
            self._check_nat_wellformed(ctx, nat, term.span)
        nat_subst = dict(zip(nat_params, term.nat_args))
        mem_subst = dict(zip(mem_params, term.mem_args))
        ty_subst = dict(zip(ty_params, term.ty_args))
        return nat_subst, mem_subst, ty_subst

    def _check_builtin(self, ctx: TypingContext, term: T.FnApp) -> DataType:
        name = term.name
        span = term.span
        if ctx.exec_spec.is_gpu():
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{name}` manages CPU/GPU memory and can only be called from the host",
                    span,
                )
            )
        args = [self.check_term(ctx, arg) for arg in term.args]

        if name == "CpuHeap::new":
            self._expect_arg_count(ctx, term, 1)
            return AtType(args[0], CPU_MEM)
        if name == "GpuGlobal::alloc":
            if len(term.ty_args) != 1:
                raise ctx.error(
                    Diagnostic.error(
                        "E0012", "`GpuGlobal::alloc` expects one type argument", span
                    )
                )
            self._expect_arg_count(ctx, term, 0)
            return AtType(term.ty_args[0], GPU_GLOBAL)
        if name == "GpuGlobal::alloc_copy":
            self._expect_arg_count(ctx, term, 1)
            source_ty = args[0]
            if not (isinstance(source_ty, RefType) and str(source_ty.mem) == "cpu.mem"):
                raise ctx.error(
                    Diagnostic.error(
                        "E0003",
                        "mismatched types",
                        term.args[0].span if term.args else span,
                        label=f"expected reference to `cpu.mem`, found `{source_ty}`",
                    )
                )
            return AtType(source_ty.referent, GPU_GLOBAL)
        if name in ("copy_mem_to_host", "copy_mem_to_gpu"):
            self._expect_arg_count(ctx, term, 2)
            dst_ty, src_ty = args
            if name == "copy_mem_to_host":
                expected_dst_mem, expected_src_mem = "cpu.mem", "gpu.global"
            else:
                expected_dst_mem, expected_src_mem = "gpu.global", "cpu.mem"
            self._check_copy_ref(ctx, term, 0, dst_ty, expected_dst_mem, must_be_uniq=True)
            self._check_copy_ref(ctx, term, 1, src_ty, expected_src_mem, must_be_uniq=False)
            if (
                isinstance(dst_ty, RefType)
                and isinstance(src_ty, RefType)
                and not types_equal(dst_ty.referent, src_ty.referent)
            ):
                raise ctx.error(
                    Diagnostic.error(
                        "E0011",
                        "mismatched types",
                        span,
                        label=f"cannot copy `{src_ty.referent}` into `{dst_ty.referent}`",
                    )
                )
            return UNIT
        raise ctx.error(
            Diagnostic.error("E0009", f"unknown built-in function `{name}`", span)
        )

    def _check_copy_ref(
        self,
        ctx: TypingContext,
        term: T.FnApp,
        index: int,
        found: DataType,
        expected_mem: str,
        must_be_uniq: bool,
    ) -> None:
        span = term.args[index].span if index < len(term.args) else term.span
        if not isinstance(found, RefType):
            raise ctx.error(
                Diagnostic.error(
                    "E0003",
                    "mismatched types",
                    span,
                    label=f"expected reference to `{expected_mem}`, found `{found}`",
                )
            )
        if str(found.mem) != expected_mem:
            raise ctx.error(
                Diagnostic.error(
                    "E0003",
                    "mismatched types",
                    span,
                    label=f"expected reference to `{expected_mem}`, found reference to `{found.mem}`",
                )
            )
        if must_be_uniq and not found.uniq:
            raise ctx.error(
                Diagnostic.error(
                    "E0014",
                    "the destination of a copy must be a unique reference",
                    span,
                )
            )

    def _expect_arg_count(self, ctx: TypingContext, term: T.FnApp, count: int) -> None:
        if len(term.args) != count:
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    f"`{term.name}` expects {count} argument(s), got {len(term.args)}",
                    term.span,
                )
            )

    def _check_kernel_launch(self, ctx: TypingContext, term: T.KernelLaunch) -> DataType:
        if ctx.exec_spec.is_gpu():
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    "GPU functions can only be launched from the host",
                    term.span,
                )
            )
        fn_type = ctx.globals.lookup(term.name)
        if fn_type is None:
            raise ctx.error(
                Diagnostic.error("E0009", f"cannot find function `{term.name}`", term.span)
            )
        level = fn_type.exec_spec.level
        if not isinstance(level, GpuGridLevel):
            raise ctx.error(
                Diagnostic.error(
                    "E0010",
                    f"`{term.name}` is not a GPU grid function and cannot be launched",
                    term.span,
                )
            )
        nat_params = [g.name for g in fn_type.generics if g.kind == Kind.NAT]
        if len(nat_params) != len(term.nat_args):
            raise ctx.error(
                Diagnostic.error(
                    "E0012",
                    f"`{term.name}` expects {len(nat_params)} nat argument(s), got "
                    f"{len(term.nat_args)}",
                    term.span,
                )
            )
        for nat in term.nat_args:
            self._check_nat_wellformed(ctx, nat, term.span)
        nat_subst = dict(zip(nat_params, term.nat_args))

        expected_level = level.substitute_nats(nat_subst)
        if not term.grid_dim.equals(expected_level.blocks) or not term.block_dim.equals(
            expected_level.threads
        ):
            raise ctx.error(
                Diagnostic.error(
                    "E0005",
                    "mismatched launch configuration",
                    term.span,
                    label=(
                        f"`{term.name}` must be executed by "
                        f"`gpu.grid<{expected_level.blocks}, {expected_level.threads}>`, "
                        f"launched with `<<<{term.grid_dim}, {term.block_dim}>>>`"
                    ),
                )
            )

        arg_types = [self.check_term(ctx, arg) for arg in term.args]
        expected_params = [p.substitute(nat_subst, {}, {}) for p in fn_type.params]
        if len(arg_types) != len(expected_params):
            raise ctx.error(
                Diagnostic.error(
                    "E0011",
                    f"`{term.name}` expects {len(expected_params)} argument(s), got {len(arg_types)}",
                    term.span,
                )
            )
        for index, (expected, found) in enumerate(zip(expected_params, arg_types)):
            if not assignable(expected, found):
                label = f"expected `{expected}`, found `{found}`"
                if (
                    isinstance(expected, RefType)
                    and isinstance(found, RefType)
                    and str(expected.mem) == str(found.mem)
                ):
                    label = f"expected `{expected.referent}`, found `{found.referent}`"
                raise ctx.error(
                    Diagnostic.error(
                        "E0005",
                        "mismatched types",
                        term.args[index].span if index < len(term.args) else term.span,
                        label=label,
                    )
                )
        return UNIT
