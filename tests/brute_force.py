"""Brute-force references the tests check the solver, the cuts and the oracle
against: every integer point of a bounded region, and cut validity over them.

None of this runs in the package's commands; it is exhaustive on purpose and
only usable on tiny instances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from cutplane.gomory import Cut
from cutplane.lp import GE, INFEASIBLE, INTEGRALITY_TOL, LE, UNBOUNDED, LinearProgram, solve_lp


class TooLarge(ValueError):
    """Enumeration box exceeds the supported size."""


def integer_box(lp: LinearProgram) -> np.ndarray:
    """Per-variable integer upper bounds from LP maxima (region must be bounded)."""
    n = lp.num_vars
    ub = np.zeros(n, dtype=np.int64)
    for j in range(n):
        obj = np.zeros(n)
        obj[j] = -1.0  # maximize x_j
        probe = LinearProgram(objective=obj, A=lp.A, b=lp.b, senses=list(lp.senses))
        sol = solve_lp(probe)
        if sol.status == UNBOUNDED:
            raise ValueError(f"variable {j} is unbounded; cannot build an enumeration box")
        if sol.status == INFEASIBLE:
            return np.zeros(n, dtype=np.int64)
        ub[j] = max(0, int(math.floor(-sol.value + INTEGRALITY_TOL)))
    return ub


def enumerate_integer_points(
    lp: LinearProgram,
    bounds: Sequence[int],
    max_points: int = 10_000_000,
) -> np.ndarray:
    """All integer-feasible points in the box [0, bounds], exact arithmetic.

    DFS over variables with per-row interval pruning; raises :class:`TooLarge`
    when the box holds more than ``max_points`` candidates.
    """
    n = lp.num_vars
    bounds = np.asarray(bounds, dtype=np.int64)
    if len(bounds) != n:
        raise ValueError("bounds length must match num_vars")
    size = 1.0
    for b in bounds:
        size *= float(b) + 1.0
        if size > max_points:
            raise TooLarge(f"enumeration box exceeds {max_points:g} points")

    A = np.round(lp.A).astype(np.int64)
    b = np.round(lp.b).astype(np.int64)
    m = lp.num_rows
    senses = lp.senses
    # suffix_min[r, d] / suffix_max[r, d]: extreme achievable contribution of vars d..n-1 to row r.
    contrib_min = np.minimum(A * 0, A * bounds[None, :])
    contrib_max = np.maximum(A * 0, A * bounds[None, :])
    suffix_min = np.zeros((m, n + 1), dtype=np.int64)
    suffix_max = np.zeros((m, n + 1), dtype=np.int64)
    for d in range(n - 1, -1, -1):
        suffix_min[:, d] = suffix_min[:, d + 1] + contrib_min[:, d]
        suffix_max[:, d] = suffix_max[:, d + 1] + contrib_max[:, d]

    le_rows = np.array([i for i, s in enumerate(senses) if s == LE], dtype=np.int64)
    ge_rows = np.array([i for i, s in enumerate(senses) if s == GE], dtype=np.int64)

    out = []
    point = np.zeros(n, dtype=np.int64)
    partial = np.zeros(m, dtype=np.int64)

    def feasible_prefix(d):
        # Rows must still be satisfiable by some completion of vars d..n-1.
        if le_rows.size and np.any(partial[le_rows] + suffix_min[le_rows, d] > b[le_rows]):
            return False
        if ge_rows.size and np.any(partial[ge_rows] + suffix_max[ge_rows, d] < b[ge_rows]):
            return False
        return True

    def rec(d):
        nonlocal partial
        if d == n:
            out.append(point.copy())
            return
        col = A[:, d]
        for v in range(int(bounds[d]) + 1):
            point[d] = v
            partial += col * v
            if feasible_prefix(d + 1):
                rec(d + 1)
            partial -= col * v
        point[d] = 0

    if m == 0:
        grids = np.meshgrid(*[np.arange(bv + 1) for bv in bounds], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    rec(0)
    if not out:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def validate_cut(
    cut: Cut,
    x_frac: Sequence[float],
    integer_points: np.ndarray,
    margin: float = 1e-7,
) -> bool:
    """True iff the cut separates x_frac and keeps every integer point feasible."""
    if cut.violation(x_frac) <= margin:
        return False
    pts = np.asarray(integer_points, dtype=float)
    if pts.size == 0:
        return True
    return bool(np.max(pts @ cut.alpha - cut.beta) <= margin)
