"""The host-side interpreter: Descend's heterogeneous (CPU) execution model.

CPU Descend functions manage memory (heap allocations, host↔device copies)
and launch GPU functions.  :class:`HostInterpreter` executes them against a
:class:`~repro.gpusim.device.GpuDevice`, recording every kernel launch so the
benchmark harness can read simulated kernel times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.descend.ast import terms as T
from repro.descend.ast.places import PDeref, PIdx, PVar, PlaceExpr
from repro.descend.interp.device import DescendKernel
from repro.descend.interp.values import MemValue, Value, numpy_dtype, static_shape
from repro.descend.nat import Nat, evaluate_nat
from repro.errors import DescendRuntimeError
from repro.gpusim.buffer import DeviceBuffer, HostBuffer
from repro.gpusim.device import GpuDevice, LaunchResult


@dataclass
class ExecutionResult:
    """The outcome of running a host Descend function."""

    launches: List[LaunchResult] = field(default_factory=list)
    locals: Dict[str, Value] = field(default_factory=dict)

    @property
    def total_kernel_cycles(self) -> float:
        return sum(launch.cycles for launch in self.launches)

    def array(self, name: str) -> np.ndarray:
        """Read back a host- or device-buffer variable as a numpy array."""
        value = self.locals.get(name)
        if isinstance(value, MemValue):
            return value.buffer.as_array()
        raise DescendRuntimeError(f"`{name}` is not an array value")

    def scalar(self, name: str):
        value = self.locals.get(name)
        if isinstance(value, MemValue):
            raise DescendRuntimeError(f"`{name}` is an array, not a scalar")
        return value


class HostInterpreter:
    """Interprets CPU Descend functions and their GPU launches.

    ``execution_mode`` selects the engine used for the GPU launches this host
    program performs (``"reference"`` or ``"vectorized"``); ``None`` inherits
    the device's default mode.  Vectorized launches of functions the device-
    plan compiler cannot lower fall back to the reference interpreter.
    """

    def __init__(
        self,
        program: T.Program,
        device: Optional[GpuDevice] = None,
        execution_mode: Optional[str] = None,
        compiled=None,
    ) -> None:
        self.program = program
        self.device = device if device is not None else GpuDevice()
        self.execution_mode = execution_mode
        self._compiled = compiled
        # One kernel handle per GPU function: repeated launches (e.g. inside
        # a `for`-nat loop) reuse the handle's cached device plan instead of
        # re-lowering per launch.
        self._kernels: Dict[str, DescendKernel] = {}

    def _kernel(self, name: str) -> DescendKernel:
        kernel = self._kernels.get(name)
        if kernel is None:
            if self._compiled is not None:
                kernel = self._compiled.kernel(name)
            else:
                kernel = DescendKernel(self.program, name)
            self._kernels[name] = kernel
        return kernel

    # -- public API ------------------------------------------------------------------
    def run(
        self,
        fun_name: str,
        args: Optional[Dict[str, Union[np.ndarray, int, float]]] = None,
        nat_args: Optional[Dict[str, int]] = None,
    ) -> ExecutionResult:
        fun_def = self.program.fun(fun_name)
        if fun_def.exec_spec.is_gpu():
            raise DescendRuntimeError(
                f"`{fun_name}` is a GPU function; use DescendKernel to launch it"
            )
        result = ExecutionResult()
        env: Dict[str, Value] = {}
        nat_env: Dict[str, int] = dict(nat_args or {})
        for param in fun_def.params:
            provided = (args or {}).get(param.name)
            if provided is None:
                raise DescendRuntimeError(f"missing argument `{param.name}`")
            if isinstance(provided, np.ndarray):
                env[param.name] = MemValue.whole(HostBuffer.from_array(provided, label=param.name))
            else:
                env[param.name] = provided
        self._exec_block(fun_def.body, env, nat_env, result)
        result.locals = env
        return result

    # -- statements ---------------------------------------------------------------------
    def _exec_block(self, block: T.Block, env, nat_env, result) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, env, nat_env, result)

    def _exec_stmt(self, term: T.Term, env, nat_env, result) -> None:
        if isinstance(term, T.Block):
            self._exec_block(term, env, nat_env, result)
            return
        if isinstance(term, T.LetTerm):
            env[term.name] = self._eval(term.init, env, nat_env, result, label=term.name)
            return
        if isinstance(term, T.Assign):
            value = self._eval(term.value, env, nat_env, result)
            self._assign_place(term.place, value, env, nat_env)
            return
        if isinstance(term, T.IfTerm):
            if self._eval(term.cond, env, nat_env, result):
                self._exec_block(term.then, env, nat_env, result)
            elif term.otherwise is not None:
                self._exec_block(term.otherwise, env, nat_env, result)
            return
        if isinstance(term, T.ForNat):
            lo = int(evaluate_nat(term.lo, nat_env))
            hi = int(evaluate_nat(term.hi, nat_env))
            for value in range(lo, hi):
                nat_env[term.var] = value
                self._exec_block(term.body, env, nat_env, result)
            nat_env.pop(term.var, None)
            return
        if isinstance(term, (T.FnApp, T.KernelLaunch)):
            self._eval(term, env, nat_env, result)
            return
        raise DescendRuntimeError(f"unsupported host statement {term}")

    # -- expressions ---------------------------------------------------------------------
    def _eval(self, term: T.Term, env, nat_env, result, label: str = "") -> Value:
        if isinstance(term, T.Lit):
            return term.value
        if isinstance(term, T.NatTerm):
            return int(evaluate_nat(term.nat, nat_env))
        if isinstance(term, T.PlaceTerm):
            return self._read_place(term.place, env, nat_env)
        if isinstance(term, T.Borrow):
            value = self._resolve_root(term.place, env)
            return value
        if isinstance(term, T.BinaryOp):
            lhs = self._eval(term.lhs, env, nat_env, result)
            rhs = self._eval(term.rhs, env, nat_env, result)
            return _apply_host_binop(term.op, lhs, rhs)
        if isinstance(term, T.UnaryOp):
            operand = self._eval(term.operand, env, nat_env, result)
            return -operand if term.op == "-" else (not operand)
        if isinstance(term, T.ArrayInit):
            size = int(evaluate_nat(term.size, nat_env))
            fill = self._eval(term.value, env, nat_env, result)
            dtype = np.float64 if isinstance(fill, float) else np.int64
            return np.full(size, fill, dtype=dtype)
        if isinstance(term, T.FnApp):
            return self._eval_fn_app(term, env, nat_env, result, label)
        if isinstance(term, T.KernelLaunch):
            return self._eval_launch(term, env, nat_env, result)
        raise DescendRuntimeError(f"unsupported host expression {term}")

    def _eval_fn_app(self, term: T.FnApp, env, nat_env, result, label: str = "") -> Value:
        name = term.name
        if name == "CpuHeap::new":
            init = self._eval(term.args[0], env, nat_env, result)
            array = np.asarray(init)
            return MemValue.whole(HostBuffer.from_array(array, label=label or "cpu_heap"))
        if name == "GpuGlobal::alloc":
            ty = term.ty_args[0]
            shape = static_shape(ty, nat_env) or (1,)
            buffer = self.device.malloc(shape, dtype=numpy_dtype(ty), label=label or "gpu_alloc")
            return MemValue.whole(buffer)
        if name == "GpuGlobal::alloc_copy":
            source = self._eval(term.args[0], env, nat_env, result)
            if not isinstance(source, MemValue) or not isinstance(source.buffer, HostBuffer):
                raise DescendRuntimeError("`GpuGlobal::alloc_copy` expects a reference to CPU memory")
            buffer = self.device.to_device(source.buffer.as_array(), label=label or "gpu_copy")
            return MemValue.whole(buffer)
        if name == "copy_mem_to_host":
            dst = self._eval(term.args[0], env, nat_env, result)
            src = self._eval(term.args[1], env, nat_env, result)
            if not (isinstance(dst, MemValue) and isinstance(dst.buffer, HostBuffer)):
                raise DescendRuntimeError("`copy_mem_to_host` destination must be CPU memory")
            if not (isinstance(src, MemValue) and isinstance(src.buffer, DeviceBuffer)):
                raise DescendRuntimeError("`copy_mem_to_host` source must be GPU global memory")
            src.buffer.copy_to_host(dst.buffer)
            return None
        if name == "copy_mem_to_gpu":
            dst = self._eval(term.args[0], env, nat_env, result)
            src = self._eval(term.args[1], env, nat_env, result)
            if not (isinstance(dst, MemValue) and isinstance(dst.buffer, DeviceBuffer)):
                raise DescendRuntimeError("`copy_mem_to_gpu` destination must be GPU global memory")
            if not (isinstance(src, MemValue) and isinstance(src.buffer, HostBuffer)):
                raise DescendRuntimeError("`copy_mem_to_gpu` source must be CPU memory")
            dst.buffer.copy_from_host(src.buffer)
            return None
        if name == "exclusive_scan_host":
            # Prelude helper used by the scan benchmark's host pipeline.
            target = self._eval(term.args[0], env, nat_env, result)
            if not isinstance(target, MemValue):
                raise DescendRuntimeError("`exclusive_scan_host` expects an array")
            data = target.buffer.as_array().reshape(-1)
            scanned = np.zeros_like(data)
            if data.size > 1:
                scanned[1:] = np.cumsum(data)[:-1]
            target.buffer.data[:] = scanned
            return None
        # user-defined CPU function call
        callee = self.program.fun(name)
        call_env: Dict[str, Value] = {}
        for param, arg in zip(callee.params, term.args):
            call_env[param.name] = self._eval(arg, env, nat_env, result)
        callee_nats = {
            generic.name: int(evaluate_nat(nat, nat_env))
            for generic, nat in zip(callee.generics, term.nat_args)
        }
        self._exec_block(callee.body, call_env, callee_nats, result)
        return None

    def _eval_launch(self, term: T.KernelLaunch, env, nat_env, result) -> Value:
        kernel = self._kernel(term.name)
        callee = self.program.fun(term.name)
        nat_names = [g.name for g in callee.generics]
        launch_nats = {
            name: int(evaluate_nat(nat, nat_env)) for name, nat in zip(nat_names, term.nat_args)
        }
        args: Dict[str, Value] = {}
        for param, arg in zip(callee.params, term.args):
            value = self._eval(arg, env, nat_env, result)
            args[param.name] = value
        launch = kernel.launch(
            self.device, args=args, nat_args=launch_nats, execution_mode=self.execution_mode
        )
        result.launches.append(launch)
        return None

    # -- places (host side) ------------------------------------------------------------------
    def _resolve_root(self, place: PlaceExpr, env) -> Value:
        root = place.root()
        if root.name not in env:
            raise DescendRuntimeError(f"unbound host variable `{root.name}`")
        return env[root.name]

    def _read_place(self, place: PlaceExpr, env, nat_env) -> Value:
        value = self._resolve_root(place, env)
        offset = self._place_offset(place, value, nat_env)
        if offset is None:
            return value
        assert isinstance(value, MemValue)
        return value.buffer.data[offset]

    def _assign_place(self, place: PlaceExpr, new_value, env, nat_env) -> None:
        value = self._resolve_root(place, env)
        offset = self._place_offset(place, value, nat_env)
        if offset is None:
            env[place.root().name] = new_value
            return
        assert isinstance(value, MemValue)
        value.buffer.data[offset] = new_value

    @staticmethod
    def _place_offset(place: PlaceExpr, value: Value, nat_env) -> Optional[int]:
        """Flat offset for simple host places (``x``, ``*x``, ``x[i]``); None = whole value."""
        parts = [p for p in place.parts() if not isinstance(p, (PVar, PDeref))]
        if not parts:
            return None
        if not isinstance(value, MemValue):
            raise DescendRuntimeError(f"cannot index into scalar `{place.root().name}`")
        offset = 0
        logical = value.logical
        for part in parts:
            if isinstance(part, PIdx):
                index = (
                    int(evaluate_nat(part.index, nat_env))
                    if isinstance(part.index, Nat)
                    else int(part.index)
                )
                logical = logical.index(index)
            else:
                raise DescendRuntimeError(
                    "only simple indexing is supported in host place expressions"
                )
        if not logical.is_scalar():
            raise DescendRuntimeError("host assignments must target single elements")
        return int(logical.flat_offset(()))


def _apply_host_binop(op: str, lhs, rhs):
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
    raise DescendRuntimeError(f"unsupported host operator {op}")
