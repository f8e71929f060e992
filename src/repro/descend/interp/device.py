"""The per-thread interpreter for GPU Descend functions.

A Descend GPU function is executed by the whole grid; under the holistic
model every statement is executed by the execution resource that is current
at that point (the grid, a collection of blocks, a single thread...).  On the
simulator — exactly like in the CUDA code the real compiler generates — the
function body is executed by *every thread*, with ``sched`` binding the
thread's own coordinates and ``split`` selecting which branch the thread
participates in.

Barriers (``sync``) become ``yield`` for the simulator's block executor, so
the interpreter's statement execution is generator-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim, DimName
from repro.descend.ast.exec_level import GpuGridLevel
from repro.descend.ast.places import PDeref, PIdx, PProj, PSelect, PVar, PView, PlaceExpr
from repro.descend.interp.values import MemValue, Value, numpy_dtype, static_shape
from repro.descend.nat import Nat, evaluate_nat
from repro.descend.views.indexing import LogicalArray, LogicalPair, bind_view
from repro.errors import DescendRuntimeError
from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.device import GpuDevice, LaunchResult
from repro.gpusim.launch import ThreadCtx

_ARITH_OPS = ("+", "-", "*", "/", "%")


@dataclass
class ScalarSlot:
    """A fully indexed element of a buffer (the result of evaluating a place)."""

    buffer: DeviceBuffer
    offset: int


class _LocalScalar:
    """Marker for a plain scalar local variable used as an assignment target."""

    def __init__(self, name: str):
        self.name = name


class ThreadState:
    """Interpreter state for one simulated GPU thread."""

    def __init__(
        self,
        ctx: ThreadCtx,
        fun_def: T.FunDef,
        nat_env: Dict[str, int],
        args: Dict[str, Value],
    ) -> None:
        self.ctx = ctx
        self.fun_def = fun_def
        self.nat_env = dict(nat_env)
        self.locals: Dict[str, Value] = dict(args)
        self.exec_coords: Dict[str, Tuple[int, ...]] = {}

        level = fun_def.exec_spec.level
        if not isinstance(level, GpuGridLevel):
            raise DescendRuntimeError(
                f"`{fun_def.name}` is not a GPU grid function and cannot be launched"
            )
        self._block_window = {
            name: [0, int(evaluate_nat(size, self.nat_env))]
            for name, size in level.blocks.entries
        }
        self._thread_window = {
            name: [0, int(evaluate_nat(size, self.nat_env))]
            for name, size in level.threads.entries
        }
        self._pending_blocks = set(self._block_window)
        self._pending_threads = set(self._thread_window)

    # -- coordinates ----------------------------------------------------------------
    def _raw_index(self, dim: DimName, over_blocks: bool) -> int:
        source = self.ctx.blockIdx if over_blocks else self.ctx.threadIdx
        return {DimName.X: source.x, DimName.Y: source.y, DimName.Z: source.z}[dim]

    def _nat_value(self, nat: Nat) -> int:
        return int(evaluate_nat(nat, self.nat_env))

    # -- place evaluation --------------------------------------------------------------
    def eval_place(self, place: PlaceExpr):
        """Evaluate a place to a ScalarSlot, a MemValue, a scalar, or a local slot."""
        parts = place.parts()
        root = parts[0]
        assert isinstance(root, PVar)
        if root.name not in self.locals:
            raise DescendRuntimeError(f"unbound variable `{root.name}` at runtime")
        value = self.locals[root.name]

        if not isinstance(value, MemValue):
            if len(parts) == 1:
                return _LocalScalar(root.name)
            raise DescendRuntimeError(
                f"`{root.name}` is a scalar and cannot be indexed or viewed"
            )

        current: Union[LogicalArray, LogicalPair] = value.logical
        buffer = value.buffer
        for part in parts[1:]:
            if isinstance(part, PDeref):
                continue
            if isinstance(part, PView):
                if isinstance(current, LogicalPair):
                    raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
                bound = bind_view(part.ref, resolver=self._nat_value)
                current = current.apply_view(bound)
                continue
            if isinstance(part, PProj):
                if isinstance(current, LogicalPair):
                    current = current.project(part.index)
                    continue
                raise DescendRuntimeError("tuple projections on runtime tuples are not supported")
            if isinstance(current, LogicalPair):
                raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
            if isinstance(part, PSelect):
                coords = self.exec_coords.get(part.exec_var)
                if coords is None:
                    raise DescendRuntimeError(
                        f"`{part.exec_var}` is not a scheduled execution resource"
                    )
                current = current.select(coords)
                continue
            if isinstance(part, PIdx):
                index_value = (
                    self._nat_value(part.index)
                    if isinstance(part.index, Nat)
                    else int(self.eval_expr(part.index))
                )
                current = current.index(index_value)
                continue
            raise DescendRuntimeError(f"unsupported place expression step {part}")

        if isinstance(current, LogicalPair):
            raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
        if current.is_scalar():
            return ScalarSlot(buffer=buffer, offset=int(current.flat_offset(())))
        return MemValue(buffer=buffer, logical=current, uniq=value.uniq)

    # -- expressions ----------------------------------------------------------------------
    def eval_expr(self, term: T.Term) -> Value:
        if isinstance(term, T.Lit):
            return term.value
        if isinstance(term, T.NatTerm):
            return self._nat_value(term.nat)
        if isinstance(term, T.PlaceTerm):
            target = self.eval_place(term.place)
            if isinstance(target, ScalarSlot):
                return self.ctx.load(target.buffer, target.offset)
            if isinstance(target, _LocalScalar):
                return self.locals[target.name]
            return target
        if isinstance(term, T.Borrow):
            target = self.eval_place(term.place)
            if isinstance(target, ScalarSlot):
                raise DescendRuntimeError("cannot borrow a single element at runtime")
            if isinstance(target, _LocalScalar):
                raise DescendRuntimeError("cannot borrow a scalar local at runtime")
            return target
        if isinstance(term, T.BinaryOp):
            return self._eval_binary(term)
        if isinstance(term, T.UnaryOp):
            operand = self.eval_expr(term.operand)
            if term.op == "-":
                self.ctx.arith(1)
                return -operand
            if term.op == "!":
                return not operand
            raise DescendRuntimeError(f"unsupported unary operator {term.op}")
        if isinstance(term, T.Alloc):
            return self._eval_alloc(term)
        if isinstance(term, T.FnApp):
            raise DescendRuntimeError(
                f"function calls on the GPU are inlined before execution; "
                f"cannot interpret call to `{term.name}`"
            )
        raise DescendRuntimeError(f"cannot evaluate term {term}")

    def _eval_binary(self, term: T.BinaryOp) -> Value:
        lhs = self.eval_expr(term.lhs)
        rhs = self.eval_expr(term.rhs)
        op = term.op
        if op in _ARITH_OPS:
            self.ctx.arith(1)
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                if isinstance(lhs, (int, np.integer)) and isinstance(rhs, (int, np.integer)):
                    return lhs // rhs
                return lhs / rhs
            if op == "%":
                return lhs % rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "&&":
            return bool(lhs) and bool(rhs)
        if op == "||":
            return bool(lhs) or bool(rhs)
        raise DescendRuntimeError(f"unsupported binary operator {op}")

    def _eval_alloc(self, term: T.Alloc) -> MemValue:
        shape = static_shape(term.ty, self.nat_env) or (1,)
        dtype = numpy_dtype(term.ty)
        mem_name = str(term.mem)
        if mem_name == "gpu.shared":
            buffer = self.ctx.shared(f"shared_{id(term)}", shape, dtype=dtype)
        elif mem_name == "gpu.local":
            buffer = self.ctx.local(shape, dtype=dtype)
        else:
            raise DescendRuntimeError(f"cannot allocate `{term.mem}` memory on the GPU")
        return MemValue.whole(buffer)

    # -- statements -------------------------------------------------------------------------
    def exec_stmt(self, term: T.Term):
        """Execute a statement; yields at barriers."""
        if isinstance(term, T.Block):
            # Only bindings introduced by this block go out of scope at its end;
            # mutations of outer variables must survive.
            shadowed: Dict[str, Value] = {}
            introduced: List[str] = []
            try:
                for stmt in term.stmts:
                    if isinstance(stmt, T.LetTerm):
                        if stmt.name in self.locals and stmt.name not in shadowed:
                            shadowed[stmt.name] = self.locals[stmt.name]
                        introduced.append(stmt.name)
                    yield from self.exec_stmt(stmt)
            finally:
                for name in introduced:
                    self.locals.pop(name, None)
                self.locals.update(shadowed)
            return
        if isinstance(term, T.LetTerm):
            self.locals[term.name] = self.eval_expr(term.init)
            return
        if isinstance(term, T.Assign):
            value = self.eval_expr(term.value)
            target = self.eval_place(term.place)
            if isinstance(target, _LocalScalar):
                self.locals[target.name] = value
            elif isinstance(target, ScalarSlot):
                self.ctx.store(target.buffer, target.offset, value)
            else:
                raise DescendRuntimeError(
                    f"cannot assign a whole array at once: `{term.place}`"
                )
            return
        if isinstance(term, T.IfTerm):
            if self.eval_expr(term.cond):
                yield from self.exec_stmt(term.then)
            elif term.otherwise is not None:
                yield from self.exec_stmt(term.otherwise)
            return
        if isinstance(term, T.ForNat):
            lo = self._nat_value(term.lo)
            hi = self._nat_value(term.hi)
            previous = self.nat_env.get(term.var)
            for value in range(lo, hi):
                self.nat_env[term.var] = value
                yield from self.exec_stmt(term.body)
            if previous is None:
                self.nat_env.pop(term.var, None)
            else:
                self.nat_env[term.var] = previous
            return
        if isinstance(term, T.ForEach):
            collection = self.eval_expr(term.collection)
            if not isinstance(collection, MemValue):
                raise DescendRuntimeError("`for ... in` expects an array value")
            size = collection.shape[0]
            for index in range(size):
                element = collection.logical.index(index)
                if element.is_scalar():
                    value: Value = self.ctx.load(collection.buffer, int(element.flat_offset(())))
                else:
                    value = MemValue(buffer=collection.buffer, logical=element)
                self.locals[term.var] = value
                yield from self.exec_stmt(term.body)
            return
        if isinstance(term, T.Sched):
            yield from self._exec_sched(term)
            return
        if isinstance(term, T.SplitExec):
            yield from self._exec_split(term)
            return
        if isinstance(term, T.Sync):
            yield
            return
        # expression statements (function application on the host etc.)
        self.eval_expr(term)
        return

    def _exec_sched(self, term: T.Sched):
        over_blocks = bool(self._pending_blocks)
        window = self._block_window if over_blocks else self._thread_window
        pending = self._pending_blocks if over_blocks else self._pending_threads

        coords = []
        for dim in term.dims:
            if dim not in pending:
                raise DescendRuntimeError(
                    f"dimension {dim} is not pending for `{term.exec_name}`"
                )
            lo, _hi = window[dim]
            coords.append(self._raw_index(dim, over_blocks) - lo)
        removed = [dim for dim in term.dims]
        for dim in removed:
            pending.discard(dim)
        previous_coords = self.exec_coords.get(term.binder)
        self.exec_coords[term.binder] = tuple(coords)
        try:
            yield from self.exec_stmt(term.body)
        finally:
            if previous_coords is None:
                self.exec_coords.pop(term.binder, None)
            else:
                self.exec_coords[term.binder] = previous_coords
            for dim in removed:
                pending.add(dim)

    def _exec_split(self, term: T.SplitExec):
        over_blocks = term.dim in self._pending_blocks
        window = self._block_window if over_blocks else self._thread_window
        if term.dim not in window:
            raise DescendRuntimeError(f"cannot split missing dimension {term.dim}")
        lo, hi = window[term.dim]
        pos = self._nat_value(term.pos)
        relative = self._raw_index(term.dim, over_blocks) - lo
        if relative < pos:
            window[term.dim] = [lo, lo + pos]
            chosen = term.first_body
        else:
            window[term.dim] = [lo + pos, hi]
            chosen = term.second_body
        try:
            yield from self.exec_stmt(chosen)
        finally:
            window[term.dim] = [lo, hi]


class DescendKernel:
    """Launches one GPU Descend function on the simulator.

    The launch configuration is derived from the function's execution
    resource annotation, so host code cannot accidentally launch with the
    wrong grid (the shared-assumption problem of Section 2.3).

    Under ``execution_mode="vectorized"`` or ``"jit"`` (selected per launch
    or inherited from the device) the function body is lowered once into a
    :class:`~repro.descend.plan.ir.DevicePlan` — the serializable plan IR of
    :mod:`repro.descend.plan` — and compiled to generated Python source
    (:class:`~repro.descend.plan.codegen.PlanSource`) that runs as batched
    numpy operations.  Each launch hands the source's entry closure to
    :meth:`GpuDevice.launch`, and both modes run it through the same
    lockstep runner into the same accounting core.  Functions the plan
    compiler cannot lower fall back to this per-thread reference interpreter
    automatically (:attr:`fallback_reason` records why).

    Device plans and their generated sources are cached in a
    :class:`~repro.descend.driver.CompileSession` keyed by content hash (and
    the source is additionally memoized on the kernel handle), so repeated
    launches — even from freshly constructed handles for the same program —
    reuse one plan and one source instead of re-lowering per launch.  A
    program whose AST is unhashable has no content key, so each of its
    handles lowers its own.
    """

    def __init__(
        self,
        program: T.Program,
        fun_name: str,
        session=None,
        compiled=None,
    ) -> None:
        self.program = program
        self.fun_def = program.fun(fun_name)
        level = self.fun_def.exec_spec.level
        if not isinstance(level, GpuGridLevel):
            raise DescendRuntimeError(f"`{fun_name}` is not a GPU grid function")
        self.level = level
        #: session whose plan cache this kernel uses (``None`` = the active one)
        self.session = session
        self._compiled = compiled
        self._plan_source_entry: Optional[Tuple[Optional[object], Optional[str]]] = None
        #: why the last vectorized/jit launch fell back to the reference
        #: engine (``None`` when it did not).
        self.fallback_reason: Optional[str] = None

    def _resolve_plan_source(self) -> Tuple[Optional[object], Optional[str]]:
        """The cached ``(plan_source, fallback_reason)`` pair for this function."""
        if self._plan_source_entry is None:
            from repro.descend.driver import active_session

            session = self.session if self.session is not None else active_session()
            key, unit = None, self.fun_def.name
            if self._compiled is not None:
                key, unit = self._compiled.cache_key(), self._compiled.unit
            self._plan_source_entry = session.plan_source(
                self.program, self.fun_def.name, key=key, unit=unit
            )
        return self._plan_source_entry

    # -- launch configuration ------------------------------------------------------------
    def grid_dim(self, nat_env: Optional[Dict[str, int]] = None) -> Tuple[int, int, int]:
        return self._dim3(self.level.blocks, nat_env or {})

    def block_dim(self, nat_env: Optional[Dict[str, int]] = None) -> Tuple[int, int, int]:
        return self._dim3(self.level.threads, nat_env or {})

    @staticmethod
    def _dim3(dim: Dim, nat_env: Dict[str, int]) -> Tuple[int, int, int]:
        sizes = dim.concrete_sizes(nat_env)
        return (
            int(sizes.get(DimName.X, 1)),
            int(sizes.get(DimName.Y, 1)),
            int(sizes.get(DimName.Z, 1)),
        )

    # -- launching ----------------------------------------------------------------------------
    def launch(
        self,
        device: GpuDevice,
        args: Dict[str, Union[DeviceBuffer, MemValue, int, float]],
        nat_args: Optional[Dict[str, int]] = None,
        execution_mode: Optional[str] = None,
    ) -> LaunchResult:
        nat_env = dict(nat_args or {})
        arg_values: Dict[str, Value] = {}
        for param in self.fun_def.params:
            if param.name not in args:
                raise DescendRuntimeError(f"missing argument `{param.name}`")
            provided = args[param.name]
            if isinstance(provided, DeviceBuffer):
                arg_values[param.name] = MemValue.whole(provided)
            else:
                arg_values[param.name] = provided
        fun_def = self.fun_def

        def kernel(ctx: ThreadCtx):
            state = ThreadState(ctx, fun_def, nat_env, arg_values)
            yield from state.exec_stmt(fun_def.body)

        mode = execution_mode if execution_mode is not None else device.execution_mode
        self.fallback_reason = None
        if mode in ("vectorized", "jit"):
            plan_src, reason = self._resolve_plan_source()
            if plan_src is None:
                self.fallback_reason = reason
                mode = "reference"
            else:
                kernel = plan_src.entry(nat_env, arg_values)

        return device.launch(
            kernel,
            grid_dim=self.grid_dim(nat_env),
            block_dim=self.block_dim(nat_env),
            args=(),
            kernel_name=fun_def.name,
            execution_mode=mode,
        )
