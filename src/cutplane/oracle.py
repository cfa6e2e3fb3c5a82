"""Exact integer optimum via LP-based branch and bound, plus brute-force helpers.

This plays the role an off-the-shelf MILP solver would in a production setup:
it supplies the integrality-gap denominator z*_int and certifies that cuts do
not touch the integer optimum.  Correctness, not speed, is the contract; the
search is best-first on the LP bound with most-fractional branching.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gomory import ceil_snap
from .lp import (
    DEFAULT_TOLS,
    LE,
    GE,
    OPTIMAL,
    UNBOUNDED,
    INFEASIBLE,
    CycleLimitExceeded,
    LinearProgram,
    Tolerances,
    solve_lp,
)

ILP_OPTIMAL = "optimal"
ILP_INFEASIBLE = "infeasible"
ILP_NODE_LIMIT = "node_limit"


class TooLarge(ValueError):
    """Enumeration box exceeds the supported size."""


@dataclass
class IlpResult:
    status: str
    x_int: Optional[np.ndarray] = None
    value: Optional[float] = None
    nodes_explored: int = 0
    proven: bool = True


def _check_integer_feasible(lp: LinearProgram, x: np.ndarray, ints_ok: bool = True) -> bool:
    """Exact feasibility check of an integer point (integer arithmetic when data is integral)."""
    xi = np.round(x).astype(np.int64)
    if np.any(xi < 0):
        return False
    A = np.round(lp.A).astype(np.int64)
    b = np.round(lp.b).astype(np.int64)
    if ints_ok and (np.max(np.abs(lp.A - A)) > 0 or (len(lp.b) and np.max(np.abs(lp.b - b)) > 0)):
        # Non-integer data: fall back to a float check with tolerance.
        lhs = lp.A @ x
        for i, s in enumerate(lp.senses):
            if s == LE and lhs[i] > lp.b[i] + 1e-7:
                return False
            if s == GE and lhs[i] < lp.b[i] - 1e-7:
                return False
            if s == "=" and abs(lhs[i] - lp.b[i]) > 1e-7:
                return False
        return True
    lhs = A @ xi
    for i, s in enumerate(lp.senses):
        if s == LE and lhs[i] > b[i]:
            return False
        if s == GE and lhs[i] < b[i]:
            return False
        if s == "=" and lhs[i] != b[i]:
            return False
    return True


def solve_ilp(
    lp: LinearProgram,
    node_limit: int = 1_000_000,
    var_upper_bounds: Optional[Sequence[int]] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> IlpResult:
    """Best-first branch and bound on LP relaxations.

    Branches on the most-fractional variable; when the objective vector is
    integral the LP bound is rounded up before pruning, which is what makes
    exact optimality on integer-data instances cheap to certify.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    base = lp
    if var_upper_bounds is not None:
        ub = np.asarray(var_upper_bounds, dtype=float)
        base = LinearProgram(
            objective=lp.objective,
            A=np.vstack([lp.A, np.eye(lp.num_vars)]),
            b=np.concatenate([lp.b, ub]),
            senses=list(lp.senses) + [LE] * lp.num_vars,
            name=lp.name,
        )
    c_integral = np.all(np.abs(lp.objective - np.round(lp.objective)) < 1e-9)
    itol = tols.integrality

    def relax_value(extra_rows, extra_rhs, extra_senses):
        node_lp = LinearProgram(
            objective=base.objective,
            A=np.vstack([base.A] + extra_rows) if extra_rows else base.A,
            b=np.concatenate([base.b, extra_rhs]) if extra_rows else base.b,
            senses=list(base.senses) + extra_senses,
        )
        try:
            return solve_lp(node_lp, tols=tols)
        except CycleLimitExceeded:
            return None

    nodes = 0
    incumbent_x = None
    incumbent_val = None

    root = relax_value([], [], [])
    nodes += 1
    if root is None or root.status == INFEASIBLE:
        return IlpResult(ILP_INFEASIBLE, nodes_explored=nodes)
    if root.status == UNBOUNDED:
        raise ValueError("ILP relaxation is unbounded; generators must produce bounded instances")

    counter = 0
    heap = []

    def push(sol, rows, rhs, senses):
        nonlocal counter, incumbent_x, incumbent_val
        frac = np.abs(sol.x - np.round(sol.x))
        if np.max(frac, initial=0.0) <= itol:
            xi = np.round(sol.x)
            if _check_integer_feasible(lp, xi):
                val = float(np.round(lp.objective) @ xi) if c_integral else float(lp.objective @ xi)
                if incumbent_val is None or val < incumbent_val:
                    incumbent_val = val
                    incumbent_x = xi.astype(np.int64)
            return
        counter += 1
        heapq.heappush(heap, (sol.value, counter, sol.x.copy(), rows, rhs, senses))

    push(root, [], [], [])
    limit_hit = False
    while heap:
        bound, _, x, rows, rhs, senses = heapq.heappop(heap)
        if incumbent_val is not None:
            eff = ceil_snap(bound, itol) if c_integral else bound
            if eff >= incumbent_val:
                continue
        if nodes >= node_limit:
            limit_hit = True
            break
        frac = np.abs(x - np.round(x))
        j = int(np.argmax(frac))
        v = x[j]
        ej = np.zeros((1, lp.num_vars))
        ej[0, j] = 1.0
        for hi, bval in ((False, math.floor(v)), (True, math.ceil(v))):
            sense = GE if hi else LE
            child = relax_value(rows + [ej], np.concatenate([rhs, [float(bval)]]) if len(rhs) else np.array([float(bval)]), senses + [sense])
            nodes += 1
            if child is None or child.status != OPTIMAL:
                continue
            if incumbent_val is not None:
                eff = ceil_snap(child.value, itol) if c_integral else child.value
                if eff >= incumbent_val:
                    continue
            push(child, rows + [ej], np.concatenate([rhs, [float(bval)]]) if len(rhs) else np.array([float(bval)]), senses + [sense])

    if incumbent_x is None:
        if limit_hit:
            return IlpResult(ILP_NODE_LIMIT, nodes_explored=nodes, proven=False)
        return IlpResult(ILP_INFEASIBLE, nodes_explored=nodes)
    status = ILP_NODE_LIMIT if limit_hit else ILP_OPTIMAL
    return IlpResult(
        status=status,
        x_int=incumbent_x,
        value=incumbent_val,
        nodes_explored=nodes,
        proven=not limit_hit,
    )


def integer_box(lp: LinearProgram, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Per-variable integer upper bounds from LP maxima (region must be bounded)."""
    n = lp.num_vars
    ub = np.zeros(n, dtype=np.int64)
    for j in range(n):
        obj = np.zeros(n)
        obj[j] = -1.0  # maximize x_j
        probe = LinearProgram(objective=obj, A=lp.A, b=lp.b, senses=list(lp.senses))
        sol = solve_lp(probe, tols=tols)
        if sol.status == UNBOUNDED:
            raise ValueError(f"variable {j} is unbounded; cannot build an enumeration box")
        if sol.status == INFEASIBLE:
            return np.zeros(n, dtype=np.int64)
        ub[j] = max(0, int(math.floor(-sol.value + tols.integrality)))
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

    le_rows = np.array([i for i, s in enumerate(senses) if s in (LE, "=")], dtype=np.int64)
    ge_rows = np.array([i for i, s in enumerate(senses) if s in (GE, "=")], dtype=np.int64)

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
