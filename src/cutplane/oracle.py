"""Exact integer optimum via LP-based branch and bound.

This plays the role an off-the-shelf MILP solver would in a production setup:
it supplies the integrality-gap denominator z*_int and certifies that cuts do
not touch the integer optimum.  Correctness, not speed, is the contract; the
search is best-first on the LP bound with most-fractional branching.

The root relaxation is solved cold.  A branching bound is a ``<=`` row,
``x_j <= floor(v)`` or ``-x_j <= -ceil(v)``; a child is its parent plus one,
re-optimized by dual simplex from the parent's tableau (``lp.solve_warm``).
The heap stores each open node's optimal basis and ``(j, sign, beta)``
bounds, not its tableau or LP.  A popped node's LP is rebuilt from its
bounds and its tableau by factorizing at that basis; both children start
from it.  A child's LP is built only for a cold solve: when the basis does
not refactorize, or a warm solve hits the pivot cap or ends other than
optimal (a warm INFEASIBLE included), each with a WARNING.  A node whose
cold solve also hits the pivot cap is lost: the search logs one WARNING
naming the instance and returns ``proven=False``, so numerical trouble can
never prune the optimum unnoticed.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gomory import ceil_snap
from .lp import (
    LE,
    GE,
    OPTIMAL,
    UNBOUNDED,
    BasisError,
    CycleLimitExceeded,
    LinearProgram,
    LpSolution,
    dist_to_int,
    factorize,
    is_integral,
    solve_lp,
    solve_warm,
    to_standard_form,
)

logger = logging.getLogger(__name__)

ILP_OPTIMAL = "optimal"
ILP_INFEASIBLE = "infeasible"
ILP_NODE_LIMIT = "node_limit"

# Default branch-and-bound node budget of solve_ilp (and of ``cutplane oracle``).
NODE_LIMIT = 1_000_000


@dataclass
class IlpResult:
    status: str
    x_int: Optional[np.ndarray] = None
    value: Optional[float] = None
    nodes_explored: int = 0
    proven: bool = True


def _check_integer_feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    """Exact feasibility check of an integer point (integer arithmetic when data is integral)."""
    xi = np.round(x).astype(np.int64)
    if np.any(xi < 0):
        return False
    A = np.round(lp.A).astype(np.int64)
    b = np.round(lp.b).astype(np.int64)
    if np.array_equal(A, lp.A) and np.array_equal(b, lp.b):
        d, margin = A @ xi - b, 0
    else:
        # Non-integer data, which generators never emit but an LP augmented
        # with cuts can hold: solve_ilp also receives H u P_k, and a cut that
        # generate_cutpool kept unsnapped (logged as a WARNING) has non-integer
        # coefficients.  Check with a float margin instead.
        d, margin = lp.A @ x - lp.b, 1e-7
    senses = np.array(lp.senses, dtype=str)
    return not np.any(np.where(senses == LE, d > margin,
                               np.where(senses == GE, d < -margin, np.abs(d) > margin)))


def _bound_rows(n: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``sign * x_j <= beta`` of ``(j, sign, beta)`` bounds, as (alpha, beta)."""
    alpha = np.zeros((len(bounds), n))
    for i, (j, sign, _) in enumerate(bounds):
        alpha[i, j] = sign
    return alpha, np.array([beta for _, _, beta in bounds], dtype=float)


def _solve_children(
    parent_lp: LinearProgram,
    basis: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
) -> list[Optional[LpSolution]]:
    """Solve each child, ``parent_lp`` plus the row ``alpha[i] @ x <= beta[i]``,
    warm from ``basis``.

    The parent's tableau is rebuilt once at ``basis``; if that fails, one
    WARNING is logged and every child is solved cold.  ``None`` marks a child
    whose cold solve hit the pivot cap.
    """
    try:
        parent = factorize(to_standard_form(parent_lp), parent_lp.objective, basis)
    except BasisError as exc:
        logger.warning("B&B node basis does not refactorize (%s); solving its children cold", exc)
        parent = None
    out = []
    for a, b in zip(alpha, beta):
        try:
            out.append(solve_lp(parent_lp.with_rows(a, b)) if parent is None
                       else solve_warm(parent_lp, parent, a, b))
        except CycleLimitExceeded:
            out.append(None)
    return out


def solve_ilp(
    lp: LinearProgram,
    node_limit: int = NODE_LIMIT,
) -> IlpResult:
    """Best-first branch and bound on LP relaxations.

    Branches on the most-fractional variable; when the objective vector is
    integral the LP bound is rounded up before pruning, which is what makes
    exact optimality on integer-data instances cheap to certify.  Children
    are re-optimized from their parent's basis, and a node lost to the pivot
    cap leaves the result unproven (see the module docstring).
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    c_integral = np.all(np.abs(lp.objective - np.round(lp.objective)) < 1e-9)

    nodes = 1
    lost = 0
    incumbent_x = None
    incumbent_val = None

    try:
        root = solve_lp(lp)
    except CycleLimitExceeded:
        root, lost = None, 1
    if root is not None and root.status == UNBOUNDED:
        raise ValueError("ILP relaxation is unbounded; generators must produce bounded instances")

    counter = 0
    heap = []

    def push(sol, bounds):
        nonlocal counter, incumbent_x, incumbent_val
        if is_integral(sol.x):
            xi = np.round(sol.x)
            if _check_integer_feasible(lp, xi):
                val = float(np.round(lp.objective) @ xi) if c_integral else float(lp.objective @ xi)
                if incumbent_val is None or val < incumbent_val:
                    incumbent_val = val
                    incumbent_x = xi.astype(np.int64)
            return
        counter += 1
        heapq.heappush(heap, (sol.value, counter, sol.x.copy(), sol.tableau.basis.copy(), bounds))

    if root is not None and root.status == OPTIMAL:
        push(root, ())
    limit_hit = False
    while heap:
        bound, _, x, basis, bounds = heapq.heappop(heap)
        if incumbent_val is not None:
            eff = ceil_snap(bound) if c_integral else bound
            if eff >= incumbent_val:
                continue
        if nodes >= node_limit:
            limit_hit = True
            break
        j = int(np.argmax(dist_to_int(x)))
        v = x[j]
        kids = ((j, 1.0, float(math.floor(v))), (j, -1.0, -float(math.ceil(v))))
        node = lp.with_rows(*_bound_rows(lp.num_vars, bounds))
        sols = _solve_children(node, basis, *_bound_rows(lp.num_vars, kids))
        for kid, child in zip(kids, sols):
            nodes += 1
            lost += child is None
            if child is None or child.status != OPTIMAL:
                continue
            if incumbent_val is not None:
                eff = ceil_snap(child.value) if c_integral else child.value
                if eff >= incumbent_val:
                    continue
            push(child, bounds + (kid,))

    if lost:
        logger.warning("%s: %d B&B node(s) lost to the pivot cap; result not proven",
                       lp.name or "ILP", lost)
    status = (ILP_NODE_LIMIT if limit_hit else
              ILP_INFEASIBLE if incumbent_x is None else ILP_OPTIMAL)
    return IlpResult(status, incumbent_x, incumbent_val, nodes, proven=not (limit_hit or lost))

