"""Vectorized group-by for the cost model's divergent-batch path.

:meth:`CostModel._batched_global_transactions
<repro.gpusim.cost.CostModel._batched_global_transactions>` and
``_batched_shared_cycles`` group the batches that
:class:`~repro.gpusim.engine.jit.JitCostModel` cannot fold as they arrive
(masked or mixed-slot ones) by ``(block, warp, slot, ...)``.

``np.unique(rows, axis=0)`` sorts structured rows, which is an order of
magnitude slower than 1-D integer sorts.  :func:`row_group_ids` instead folds
the columns together one at a time: each column is dense-ranked with a 1-D
``np.unique`` and combined into the running key as ``key * n_ranks + rank``.
After every fold the key is re-densified, so the combined value stays below
``n_rows ** 2`` and can never overflow int64.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def row_group_ids(*columns: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense group id per row for the given tuple of columns.

    Rows with equal values in every column receive the same id; ids are
    contiguous in ``[0, n_groups)``.  Equivalent to grouping by
    ``np.unique(np.stack(columns, axis=1), axis=0)`` but built from fast 1-D
    uniques.
    """
    ids: np.ndarray | None = None
    n_groups = 1
    for column in columns:
        _, ranks = np.unique(np.asarray(column), return_inverse=True)
        ranks = ranks.astype(np.int64, copy=False)
        n_ranks = int(ranks.max()) + 1 if ranks.size else 0
        if ids is None:
            ids = ranks
            n_groups = n_ranks
        else:
            _, ids = np.unique(ids * n_ranks + ranks, return_inverse=True)
            ids = ids.astype(np.int64, copy=False)
            n_groups = int(ids.max()) + 1 if ids.size else 0
    assert ids is not None, "row_group_ids needs at least one column"
    return ids, n_groups


def group_representatives(group_ids: np.ndarray, n_groups: int, values: np.ndarray) -> np.ndarray:
    """One (arbitrary, consistent) value per group: ``out[g] = values[i]`` for some row i in g."""
    out = np.zeros(n_groups, dtype=np.asarray(values).dtype)
    out[group_ids] = values
    return out
