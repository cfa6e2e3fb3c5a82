"""Gomory cutpool generation from an optimal tableau, with slack elimination.

For every tableau row whose basic value v_i is fractional we emit the rounding
cut  (floor(L_i) - L_i) @ [x; s] <= floor(v_i) - v_i  and then substitute each
slack s_j = rhs_j - row_j @ x of its source row, so the stored cut lives purely
in the original variable space.  With integer constraint data and every row
slacked, the eliminated cut has integer coefficients; we snap to those integers
(and divide out a common factor) to keep later tableaus exact.  Cuts are *not*
rescaled here: any non-integer scaling would make the slack of a stored cut
non-integral at integer points and poison every later round of cuts.  Feature
encoding does its own magnitude normalization instead.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .lp import (
    DEFAULT_TOLS,
    LE,
    LinearProgram,
    LpSolution,
    OPTIMAL,
    StandardForm,
    Tolerances,
)

logger = logging.getLogger(__name__)

GOMORY = "gomory"
BOUND = "bound"


@dataclass
class Cut:
    """Hyperplane alpha @ x <= beta in original variable space.

    ``basic_var``, ``row_norm`` and ``frac_dist`` record which tableau row the
    cut came from (the basic column index, the Euclidean norm of the full row,
    and the fractional distance of the basic value); the MV/MNV/lexicographic
    heuristics select on these.
    """

    alpha: np.ndarray
    beta: float
    id: int
    born_iter: int
    kind: str = GOMORY
    basic_var: Optional[int] = None
    row_norm: Optional[float] = None
    frac_dist: Optional[float] = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)

    def violation(self, x) -> float:
        return float(self.alpha @ np.asarray(x, dtype=float) - self.beta)


@dataclass
class CutPool:
    cuts: list[Cut]
    source_iter: int

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator[Cut]:
        return iter(self.cuts)

    def ids(self) -> list[int]:
        return [c.id for c in self.cuts]


# Integers of this magnitude or more are not all representable in float64, so
# a snapped cut could no longer be exact, and its int64 gcd could wrap.
SNAP_LIMIT = 2.0 ** 53


def _gcd_reduce(alpha: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Divide an all-integer cut by the common factor of its coefficients."""
    ints = np.abs(alpha.astype(np.int64))
    g = np.gcd.reduce(ints) if ints.size else 0
    g = math.gcd(int(g), abs(int(round(beta))))
    if g > 1:
        return alpha / g, beta / g
    return alpha, beta


def generate_cutpool(
    sol: LpSolution,
    sf: StandardForm,
    lp: LinearProgram,
    tol: float = 1e-6,
    id_counter: Optional[Iterator[int]] = None,
    born_iter: int = 0,
    tols: Tolerances = DEFAULT_TOLS,
) -> CutPool:
    """All Gomory cuts of the final tableau, mapped to original variables.

    An integral optimum yields an empty pool.  Rows whose eliminated cut is
    numerically zero, or stops separating the fractional optimum after integer
    snapping, are skipped and logged.  A cut kept with non-integral or
    too-large coefficients (at or above ``SNAP_LIMIT``) is logged as a warning.
    """
    if sol.status != OPTIMAL or sol.tableau is None:
        raise ValueError("cut generation requires an optimal solution with a tableau")
    ids = id_counter if id_counter is not None else itertools.count()
    tab = sol.tableau
    if tab.exact:
        return _generate_exact(sol, sf, lp, tol, ids, born_iter, tols)

    n = sf.num_vars
    L, v = tab.matrix, tab.rhs
    frac_dist = np.abs(v - np.round(v))
    rows = np.nonzero(frac_dist > tol)[0]
    cuts: list[Cut] = []
    if rows.size == 0:
        return CutPool(cuts, born_iter)

    # One Gomory row per fractional basic value, all rows at once.
    Lr = L[rows]
    G = np.floor(Lr) - Lr
    alpha = G[:, :n].copy()
    beta = np.floor(v[rows]) - v[rows]
    if sf.row_of_slack:
        slack_cols = sorted(sf.row_of_slack)
        src_rows = [sf.row_of_slack[j] for j in slack_cols]
        R = G[:, slack_cols]
        alpha -= R @ sf.aug[src_rows, :n]
        beta -= R @ sf.rhs[src_rows]
    alpha[np.abs(alpha) < tols.pivot_zero] = 0.0

    # Snap rows that are integral to within 1e-6, then divide out their common
    # factor.  "+ 0.0" stores a zero right-hand side as +0.0, never -0.0.
    rounded = np.round(alpha)
    beta_r = np.round(beta) + 0.0
    near = ((np.abs(alpha - rounded).max(axis=1, initial=0.0) <= 1e-6)
            & (np.abs(beta - beta_r) <= 1e-6))
    small = ((np.abs(rounded).max(axis=1, initial=0.0) < SNAP_LIMIT)
             & (np.abs(beta_r) < SNAP_LIMIT))
    snap = near & small
    if snap.any():
        ints = np.abs(rounded[snap].astype(np.int64))
        g = np.gcd(np.gcd.reduce(ints, axis=1), np.abs(beta_r[snap].astype(np.int64)))
        g = np.maximum(g, 1)
        alpha[snap] = rounded[snap] / g[:, None]
        beta[snap] = beta_r[snap] / g

    nonzero = alpha.any(axis=1)
    violation = alpha @ np.asarray(sol.x, dtype=float) - beta
    for k, i in enumerate(rows):
        if not nonzero[k]:
            logger.debug("iteration %d: all-zero cut from tableau row %d skipped", born_iter, i)
            continue
        if violation[k] <= tols.feasibility:
            logger.debug(
                "iteration %d: degenerate cut from row %d (violation %.2e) skipped",
                born_iter, i, violation[k],
            )
            continue
        if not snap[k]:
            reason = "a coefficient reaches 2**53" if near[k] else "not integral to within 1e-6"
            logger.warning("iteration %d: cut from tableau row %d kept unsnapped (%s)",
                           born_iter, i, reason)
        cuts.append(Cut(
            alpha=alpha[k],
            beta=float(beta[k]),
            id=next(ids),
            born_iter=born_iter,
            kind=GOMORY,
            basic_var=int(tab.basis[i]),
            row_norm=float(np.linalg.norm(L[i])),
            frac_dist=float(frac_dist[i]),
        ))
    return CutPool(cuts, born_iter)


def _generate_exact(sol, sf, lp, tol, ids, born_iter, tols):
    """Fraction-valued tableau: floors are exact, cuts come out exactly integer
    whenever every constraint row carries a slack."""
    n = sf.num_vars
    tab = sol.tableau
    L, v = tab.matrix, tab.rhs
    slack_cols = sorted(sf.row_of_slack)
    src_rows = [sf.row_of_slack[j] for j in slack_cols]
    cuts: list[Cut] = []
    x = sol.x
    for i in range(L.shape[0]):
        vi = v[i]
        f = vi - math.floor(vi)
        if min(f, 1 - f) <= tol:
            continue
        row = L[i]
        g = [math.floor(val) - val for val in row]
        g0 = Fraction(math.floor(vi)) - vi
        alpha = [g[j] for j in range(n)]
        beta = g0
        for col, src in zip(slack_cols, src_rows):
            r = g[col]
            if r:
                for j in range(n):
                    alpha[j] -= r * Fraction(float(sf.aug[src, j]))
                beta -= r * Fraction(float(sf.rhs[src]))
        alpha_f = np.array([float(a) for a in alpha])
        beta_f = float(beta)
        if all(a.denominator == 1 for a in alpha) and beta.denominator == 1:
            alpha_f, beta_f = _gcd_reduce(np.round(alpha_f), float(round(beta_f)))
        if not np.any(alpha_f):
            continue
        xf = np.array([float(val) for val in x])
        violation = float(alpha_f @ xf) - beta_f
        if violation <= tols.feasibility:
            continue
        row_norm = math.sqrt(float(sum((val * val for val in row), Fraction(0))))
        cuts.append(Cut(
            alpha=alpha_f,
            beta=beta_f,
            id=next(ids),
            born_iter=born_iter,
            kind=GOMORY,
            basic_var=int(tab.basis[i]),
            row_norm=row_norm,
            frac_dist=float(min(f, 1 - f)),
        ))
    return CutPool(cuts, born_iter)


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


def apply_cuts(lp: LinearProgram, cuts: Sequence[Cut]) -> LinearProgram:
    """The instance (H u P): base LP plus one <= row per cut."""
    if not cuts:
        return lp
    extra = np.array([c.alpha for c in cuts])
    rhs = np.array([c.beta for c in cuts])
    return LinearProgram(
        objective=lp.objective,
        A=np.vstack([lp.A, extra]),
        b=np.concatenate([lp.b, rhs]),
        senses=list(lp.senses) + [LE] * len(cuts),
        name=lp.name,
    )


def ceil_snap(value: float, tol: float = 1e-6) -> int:
    """ceil with snapping: values within tol of an integer round to it first.

    Guards the bound constraint against ceil(2.0000001) == 3 corruption; the
    true objective at integer points is integral because c is.
    """
    r = round(float(value))
    if abs(value - r) <= tol:
        return int(r)
    return int(math.ceil(value))


def bound_cut(objective: np.ndarray, lp_value: float, cut_id: int, born_iter: int,
              tol: float = 1e-6) -> Cut:
    """The monotonicity constraint c @ x >= ceil(value), stored as -c @ x <= -ceil."""
    target = ceil_snap(lp_value, tol)
    return Cut(
        alpha=-np.asarray(objective, dtype=float),
        beta=-float(target),
        id=cut_id,
        born_iter=born_iter,
        kind=BOUND,
    )
