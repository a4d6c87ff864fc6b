"""Maximum-weight perfect assignment by a numpy shortest-augmenting-path solver.

The scan detector solves one assignment per database pair.  The solver is the
O(n^3) dual-potential method of the Jonker-Volgenant family (Jonker &
Volgenant, Computing 38, 1987; Crouse, IEEE TAES 2016): one Dijkstra-style
augmentation per row over the reduced-cost graph.

One kernel serves a single matrix and a stack of them; a matrix is a stack of
one.  The problems of a stack advance in lockstep sweeps: in each sweep every
unfinished problem takes one Dijkstra step on its own current row, as whole
``(problems, n)`` array operations, so the interpreter's per-call cost is
shared by the stack.  No problem waits for another: one that ends a row
starts its next row in the next sweep, and one that ends its last row leaves
the working set.  Each problem does the scalar loop's arithmetic in its
order: reduced costs ``(-w - u) - v``, the first index of the minimum, and
``u += delta`` / ``v -= delta`` on the used rows and columns.  Where a
whole-row operation stands for one of the loop's masked ones, it adds zeros
elsewhere, or inf to the columns the search has used, which may flip the
sign of a zero but changes no value a comparison sees.  So each assignment
is the one the scalar loop picks for that matrix alone, ties included, and
each value sums that matrix's own entries in the same order, bit for bit.

A sweep costs about as much interpreter time for one problem as for many,
so a stack of 16 solves up to 2.4x faster than a loop over its matrices,
and a single matrix 2-4x slower (README, "Assignment solver").

``greedy_max`` gives each matrix of a stack a row-order greedy assignment in
n whole-stack steps: a lower bound on the maximum, with which the scan
test's risk harness decides most trials without solving them.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def backend() -> str:
    """Name of the assignment solver, reported in run manifests."""
    return "numpy"


def solve_max(weights: np.ndarray, only=None):
    """Maximum-weight perfect assignment of each square matrix of
    ``weights``, of shape ``(n, n)`` or ``(..., n, n)``.

    Returns ``(row_to_col, value)``: for one matrix an ``(n,)`` map and the
    float summed weight of the optimal assignment, for a stack an
    ``(..., n)`` array of maps and an ``(...)`` array of values.  With
    ``only``, positions in the stack's flattened lead shape, just those
    matrices are solved, read where they lie (no copy is made), and their
    ``(len(only), n)`` maps and ``(len(only),)`` values returned.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2] or w.shape[-1] < 1:
        raise ValidationError(
            f"weights must be a square matrix or a stack of them, got {w.shape}"
        )
    # min and max propagate NaN, so this needs no array of the stack's size
    if w.size and not (np.isfinite(w.min()) and np.isfinite(w.max())):
        raise ValidationError("weights must be finite")
    n = w.shape[-1]
    rows = w.reshape(-1, n)  # row i of matrix p is rows[p * n + i]
    if only is None:
        ids = np.arange(len(rows) // n)
    else:
        ids = np.asarray(only, dtype=np.int64)
    sigma = _lockstep_sap(rows, ids)
    values = rows[ids[:, None] * n + np.arange(n), sigma].sum(axis=1)
    if only is not None:
        return sigma, values
    if w.ndim == 2:
        return sigma[0], float(values[0])
    return sigma.reshape(w.shape[:-1]), values.reshape(w.shape[:-2])


def greedy_max(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row-order greedy assignment of each matrix of a ``(problems, n,
    n)`` stack of finite weights: ``(values, reach)``, two ``(problems,)``
    arrays.

    Row i takes the largest weight among the columns that rows ``0..i-1``
    left free (the first such column on a tie), and ``values`` sums the
    taken weights in row order.  A feasible assignment's weight is a lower
    bound on the maximum (Burkard, Dell'Amico & Martello, *Assignment
    Problems*, SIAM 2009, ch. 4), so a value certifies ``maximum >= level``
    whenever it reaches the level with room for rounding.  ``reach`` is
    ``sum_i max_j |w_ij|``, which bounds the absolute weights of any
    assignment and so the rounding of any sum of them.  Each matrix's
    figures are computed from its own entries in the same order whatever
    the stack holds, and the only temporaries are ``(problems, n)`` rows."""
    problems, n = stack.shape[0], stack.shape[-1]
    at = np.arange(problems)
    values = np.zeros(problems)
    reach = np.zeros(problems)
    taken = np.zeros((problems, n))  # inf on the columns of earlier rows
    row = np.empty((problems, n))
    for i in range(n):
        np.subtract(stack[:, i], taken, out=row)
        best = row.argmax(axis=1)
        values += row[at, best]
        taken[at, best] = np.inf
        np.abs(stack[:, i], out=row)
        reach += row.max(axis=1)
    return values, reach


def _lockstep_sap(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row-to-column maps, ``(problems, n)``, of the minimum-cost assignments
    of the costs ``-w`` for the matrices w at positions ``ids`` of a stack
    given by its ``(matrices * n, n)`` rows.

    The working set holds the unfinished problems only: ``ids`` are their
    positions in the stack and ``slot`` their rows of the result, every
    state array has one row per problem, and the ``(problem, index)``
    entries the sweep touches are addressed by flat offsets into those
    rows.  Column ``n`` is the virtual start column of a row's search, and
    row ``n`` of ``col_to_row`` marks an unmatched column."""
    problems, n = len(ids), rows.shape[1]
    inf = np.inf
    sigma = np.empty((problems, n), dtype=np.int64)
    slot = np.arange(problems)
    row = np.zeros(problems, dtype=np.int64)  # the row being augmented
    i0 = np.zeros(problems, dtype=np.int64)  # the row the next step scans
    j0 = np.full(problems, n, dtype=np.int64)  # the column it was reached from
    u = np.zeros((problems, n))  # row potentials
    v = np.zeros((problems, n))  # column potentials
    col_to_row = np.full((problems, n + 1), n, dtype=np.int64)
    col_to_row[:, n] = 0
    way = np.zeros((problems, n), dtype=np.int64)  # previous column on the path
    minv = np.full((problems, n), inf)  # shortest reduced distance; inf on used
    used = np.zeros((problems, n), dtype=bool)  # columns of the current search
    blocked = np.zeros((problems, n))  # inf on those columns, else 0
    # rows of the current search; slot n takes the unmatched marker
    used_rows = np.zeros((problems, n + 1), dtype=bool)
    used_rows[:, 0] = True
    cur = np.empty((problems, n))
    better = np.empty((problems, n), dtype=bool)
    at = np.arange(problems)
    base, base1 = at * n, at * (n + 1)
    first = ids * n

    while ids.size:
        a = ids.size
        c, b = cur[:a], better[:a]
        rows.take(first + i0, axis=0, out=c)
        np.negative(c, out=c)
        c -= u.take(base + i0)[:, None]
        c -= v
        c += blocked
        np.less(c, minv, out=b)
        np.minimum(minv, c, out=minv)
        way = np.where(b, j0[:, None], way)
        j0 = minv.argmin(axis=1)
        flat = base + j0
        delta = minv.take(flat)[:, None]
        u += delta * used_rows[:, :n]
        v -= delta * used
        minv -= delta
        i0 = col_to_row.take(base1 + j0)
        minv.put(flat, inf)
        used.put(flat, True)
        blocked.put(flat, inf)
        used_rows.put(base1 + i0, True)
        if i0.max() < n:
            continue
        ended = np.flatnonzero(i0 == n)
        for p in ended.tolist():  # augment along the path back to column n
            path, owner = way[p], col_to_row[p]
            j = int(j0[p])
            while j != n:
                prev = path[j]
                owner[j] = owner[prev]
                j = prev
        row[ended] += 1  # and start the next row
        nxt = row[ended]
        minv[ended] = inf
        used[ended] = False
        blocked[ended] = 0.0
        used_rows[ended] = False
        used_rows[ended, nxt] = True
        col_to_row[ended, n] = nxt
        i0[ended] = nxt
        j0[ended] = n
        done = ended[nxt == n]
        if done.size:
            sigma[slot[done, None], col_to_row[done, :n]] = np.arange(n)
            keep = row < n
            ids, slot, row = ids[keep], slot[keep], row[keep]
            i0, j0 = i0[keep], j0[keep]
            u, v, col_to_row, way = u[keep], v[keep], col_to_row[keep], way[keep]
            minv, used, blocked = minv[keep], used[keep], blocked[keep]
            used_rows = used_rows[keep]
            at = at[: ids.size]
            base, base1, first = at * n, at * (n + 1), ids * n
    return sigma
