"""Maximum-weight perfect assignment by a numpy shortest-augmenting-path solver.

The scan detector solves one assignment per database pair.  The solver is the
O(n^3) dual-potential method of the Jonker-Volgenant family (Jonker &
Volgenant, Computing 38, 1987; Crouse, IEEE TAES 2016): one Dijkstra-style
augmentation per row over the reduced-cost graph.  Each step of an
augmentation scans a whole row of reduced costs and updates the potentials
with array operations, in the same arithmetic order as the scalar loop, so
ties resolve to the same assignment.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def backend() -> str:
    """Name of the assignment solver, reported in run manifests."""
    return "numpy"


def solve_max(weights: np.ndarray):
    """Maximum-weight perfect assignment of a square weight matrix.

    Returns ``(row_to_col, value)`` where ``value`` is the summed weight of
    the optimal assignment.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
        raise ValidationError(f"weights must be a square matrix, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    n = w.shape[0]
    cost = -w
    inf = np.inf
    u = np.zeros(n)  # row potentials
    v = np.zeros(n)  # column potentials
    # column n is the virtual start column; row n marks an unmatched column
    col_to_row = np.full(n + 1, n, dtype=np.int64)
    way = np.zeros(n, dtype=np.int64)  # previous column on the shortest path
    minv = np.empty(n)  # shortest reduced distance; +inf on used columns
    cur = np.empty(n)
    better = np.empty(n, dtype=bool)
    used_cols = np.empty(n, dtype=np.int64)
    used_rows = np.empty(n, dtype=np.int64)  # rows of used_cols and the start row

    for row in range(n):
        col_to_row[n] = row
        minv.fill(inf)
        used_rows[0] = row
        k = 0  # used real columns
        j0 = n
        i0 = row
        while True:
            np.subtract(cost[i0], u[i0], out=cur)
            cur -= v
            np.less(cur, minv, out=better)
            better[used_cols[:k]] = False
            np.copyto(minv, cur, where=better)
            way[better] = j0
            j1 = int(minv.argmin())
            delta = minv[j1]
            u[used_rows[: k + 1]] += delta
            v[used_cols[:k]] -= delta
            minv -= delta
            j0 = j1
            i0 = col_to_row[j0]
            if i0 == n:
                break
            minv[j0] = inf
            used_cols[k] = j0
            k += 1
            used_rows[k] = i0
        while j0 != n:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1

    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[col_to_row[:n]] = np.arange(n)
    value = float(w[np.arange(n), row_to_col].sum())
    return row_to_col, value
