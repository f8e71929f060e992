"""Block-wide parallel reduction in Descend.

Every block reduces its chunk of the input to one partial sum in shared
memory using the classic tree reduction.  The loop over reduction steps
splits the block's threads at the (halving) stride position — only the
"active" half performs additions — and a block-wide barrier separates the
steps.  This is the Descend idiom for the ``if (tid < s)`` pattern of the
handwritten CUDA kernel.
"""

from __future__ import annotations

import math

from repro.descend.builder import *
from repro.descend.ast import terms as T
from repro.descend.nat import NatVar, as_nat


def build_reduce_kernel(n: int, block_size: int) -> T.FunDef:
    """Per-block sums of an ``n``-element vector with ``block_size`` threads per block."""
    if n % block_size != 0:
        raise ValueError("n must be divisible by block_size")
    if block_size & (block_size - 1):
        raise ValueError("block_size must be a power of two")
    num_blocks = n // block_size
    log_steps = int(math.log2(block_size))

    # stride of reduction step k: block_size / 2^(k+1)
    stride = as_nat(block_size) / (as_nat(2) ** (NatVar("k") + 1))

    load_elem = var("input").view("group", block_size).select("block").select("thread")

    active_sum = assign(
        var("tmp").view("split", stride).fst.select("thread"),
        add(
            read(var("tmp").view("split", stride).fst.select("thread")),
            read(var("tmp").view("split", stride).snd.view("split", stride).fst.select("thread")),
        ),
    )

    return fun(
        "block_reduce",
        [
            param("input", shared_ref(GPU_GLOBAL, array(F64, n))),
            param("output", uniq_ref(GPU_GLOBAL, array(F64, num_blocks))),
        ],
        gpu_grid_spec("grid", dim_x(num_blocks), dim_x(block_size)),
        body(
            sched(
                "X",
                "block",
                "grid",
                let("tmp", alloc_shared(array(F64, block_size))),
                sched("X", "thread", "block", assign(var("tmp").select("thread"), read(load_elem))),
                for_nat(
                    "k",
                    0,
                    log_steps,
                    sync(),
                    split_exec(
                        "X",
                        "block",
                        stride,
                        ("active", block(sched("X", "thread", "active", active_sum))),
                        ("inactive", block()),
                    ),
                ),
                sync(),
                split_exec(
                    "X",
                    "block",
                    1,
                    (
                        "first",
                        block(
                            sched(
                                "X",
                                "t",
                                "first",
                                assign(
                                    var("output").select("block"),
                                    read(var("tmp").view("split", 1).fst.select("t")),
                                ),
                            )
                        ),
                    ),
                    ("rest", block()),
                ),
            )
        ),
    )


def build_reduce_program(n: int = 1024, block_size: int = 64) -> T.Program:
    return program(build_reduce_kernel(n, block_size))
