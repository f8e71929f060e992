"""Pretty-printing Descend ASTs back to surface syntax.

The printer produces text the frontend parser accepts again, which gives a
parse → print → parse round-trip used by the property-based tests, and lets
examples show programs that were assembled with the builder API in the
paper's concrete syntax.
"""

from __future__ import annotations

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim
from repro.descend.ast.exec_level import (
    CpuThreadLevel,
    GpuBlockLevel,
    GpuGridLevel,
    GpuThreadLevel,
)
from repro.descend.ast.places import PlaceExpr
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    DataType,
    RefType,
    ScalarType,
    TupleType,
    TyVar,
)


def print_type(ty: DataType) -> str:
    """Render a data type in surface syntax."""
    if isinstance(ty, ScalarType):
        return ty.name
    if isinstance(ty, TupleType):
        return "(" + ", ".join(print_type(e) for e in ty.elems) + ")"
    if isinstance(ty, ArrayType):
        return f"[{print_type(ty.elem)}; {ty.size}]"
    if isinstance(ty, ArrayViewType):
        return f"[[{print_type(ty.elem)}; {ty.size}]]"
    if isinstance(ty, RefType):
        qualifier = "uniq " if ty.uniq else ""
        return f"&{qualifier}{ty.mem} {print_type(ty.referent)}"
    if isinstance(ty, AtType):
        return f"{print_type(ty.inner)} @ {ty.mem}"
    if isinstance(ty, TyVar):
        return ty.name
    raise TypeError(f"cannot print type {ty!r}")


def print_dim(dim: Dim) -> str:
    return dim.spec_name()


def print_exec_level(level) -> str:
    if isinstance(level, CpuThreadLevel):
        return "cpu.thread"
    if isinstance(level, GpuThreadLevel):
        return "gpu.thread"
    if isinstance(level, GpuGridLevel):
        return f"gpu.grid<{print_dim(level.blocks)}, {print_dim(level.threads)}>"
    if isinstance(level, GpuBlockLevel):
        return f"gpu.block<{print_dim(level.threads)}>"
    raise TypeError(f"cannot print execution level {level!r}")


def print_place(place: PlaceExpr) -> str:
    return str(place)


def print_term(term: T.Term, indent: int = 0) -> str:
    """Render a term (statement or expression) in surface syntax."""
    pad = "    " * indent
    if isinstance(term, T.Block):
        return print_block(term, indent)
    if isinstance(term, T.LetTerm):
        annotation = f": {print_type(term.ty)}" if term.ty is not None else ""
        return f"{pad}let {term.name}{annotation} = {print_expr(term.init)}"
    if isinstance(term, T.Assign):
        return f"{pad}{print_place(term.place)} = {print_expr(term.value)}"
    if isinstance(term, T.Sync):
        return f"{pad}sync"
    if isinstance(term, T.ForNat):
        header = f"{pad}for {term.var} in [{term.lo}..{term.hi}] "
        return header + print_block(term.body, indent).lstrip()
    if isinstance(term, T.ForEach):
        header = f"{pad}for {term.var} in {print_expr(term.collection)} "
        return header + print_block(term.body, indent).lstrip()
    if isinstance(term, T.IfTerm):
        text = f"{pad}if {print_expr(term.cond)} " + print_block(term.then, indent).lstrip()
        if term.otherwise is not None:
            text += " else " + print_block(term.otherwise, indent).lstrip()
        return text
    if isinstance(term, T.Sched):
        dims = ",".join(str(d) for d in term.dims)
        header = f"{pad}sched({dims}) {term.binder} in {term.exec_name} "
        return header + print_block(term.body, indent).lstrip()
    if isinstance(term, T.SplitExec):
        first = print_block(term.first_body, indent + 1).lstrip()
        second = print_block(term.second_body, indent + 1).lstrip()
        inner_pad = "    " * (indent + 1)
        return (
            f"{pad}split({term.dim}) {term.exec_name} at {term.pos} {{\n"
            f"{inner_pad}{term.first_binder} => {first},\n"
            f"{inner_pad}{term.second_binder} => {second}\n"
            f"{pad}}}"
        )
    return f"{pad}{print_expr(term)}"


def print_expr(term: T.Term) -> str:
    """Render an expression in surface syntax."""
    if isinstance(term, T.Lit):
        if isinstance(term.ty, ScalarType) and term.ty.name == "f64":
            text = repr(float(term.value))
            return text if "." in text or "e" in text else text + ".0"
        if isinstance(term.ty, ScalarType) and term.ty.name == "bool":
            return "true" if term.value else "false"
        return str(term.value)
    if isinstance(term, T.NatTerm):
        return str(term.nat)
    if isinstance(term, T.PlaceTerm):
        return print_place(term.place)
    if isinstance(term, T.Borrow):
        return f"&{'uniq ' if term.uniq else ''}{print_place(term.place)}"
    if isinstance(term, T.BinaryOp):
        return f"({print_expr(term.lhs)} {term.op} {print_expr(term.rhs)})"
    if isinstance(term, T.UnaryOp):
        return f"({term.op}{print_expr(term.operand)})"
    if isinstance(term, T.Alloc):
        return f"alloc::<{term.mem}, {print_type(term.ty)}>()"
    if isinstance(term, T.ArrayInit):
        return f"[{print_expr(term.value)}; {term.size}]"
    if isinstance(term, T.FnApp):
        generics = ""
        pieces = [str(n) for n in term.nat_args]
        pieces += [str(m) for m in term.mem_args]
        pieces += [print_type(t) for t in term.ty_args]
        if pieces:
            generics = "::<" + ", ".join(pieces) + ">"
        return f"{term.name}{generics}(" + ", ".join(print_expr(a) for a in term.args) + ")"
    if isinstance(term, T.KernelLaunch):
        generics = ""
        if term.nat_args:
            generics = "::<" + ", ".join(str(n) for n in term.nat_args) + ">"
        return (
            f"{term.name}{generics}::<<<{print_dim(term.grid_dim)}, {print_dim(term.block_dim)}>>>("
            + ", ".join(print_expr(a) for a in term.args)
            + ")"
        )
    raise TypeError(f"cannot print expression {term!r}")


def print_block(block: T.Block, indent: int = 0) -> str:
    pad = "    " * indent
    inner = [print_term(stmt, indent + 1) + ";" for stmt in block.stmts]
    if not inner:
        return f"{pad}{{ }}"
    body = "\n".join(inner)
    return f"{pad}{{\n{body}\n{pad}}}"


def print_fun_def(fun_def: T.FunDef) -> str:
    generics = ""
    if fun_def.generics:
        generics = "<" + ", ".join(f"{g.name}: {g.kind}" for g in fun_def.generics) + ">"
    params = ", ".join(f"{p.name}: {print_type(p.ty)}" for p in fun_def.params)
    header = (
        f"fn {fun_def.name}{generics}({params}) "
        f"-[{fun_def.exec_spec.name}: {print_exec_level(fun_def.exec_spec.level)}]-> "
        f"{print_type(fun_def.ret)} "
    )
    return header + print_block(fun_def.body, 0)


def print_program(program: T.Program) -> str:
    """Render a whole program in surface syntax."""
    return "\n\n".join(print_fun_def(f) for f in program.fun_defs) + "\n"
