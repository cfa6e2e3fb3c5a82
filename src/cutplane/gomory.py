"""Gomory cutpool generation from an optimal tableau, with slack elimination.

For every tableau row whose basic value v_i is fractional we emit the rounding
cut  (floor(L_i) - L_i) @ [x; s] <= floor(v_i) - v_i  and then substitute each
slack s_j = rhs_j - row_j @ x of its source row, so the stored cut lives purely
in the original variable space; row i of the LP owns slack column n + i.  With
integer constraint data and every row slacked, which ``LinearProgram.validate``
enforces, the eliminated cut has integer coefficients; we snap to those integers
(and divide out a common factor) to keep later tableaus exact.  Cuts are *not*
rescaled here: any non-integer scaling would make the slack of a stored cut
non-integral at integer points and poison every later round of cuts.  Feature
encoding does its own magnitude normalization instead.

The module also holds what a policy sees of one iteration: the cuts, the
pool and :class:`CutPlaneState`.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .lp import (
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    PIVOT_TOL,
    LinearProgram,
    LpSolution,
    OPTIMAL,
    StandardForm,
    dist_to_int,
    to_fractions,
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

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator[Cut]:
        return iter(self.cuts)

    def ids(self) -> list[int]:
        return [c.id for c in self.cuts]


@dataclass
class CutPlaneState:
    """Everything a policy may look at during one iteration.

    In add-only mode ``x_star``/``lp_value`` belong to (H u P_k); in removal
    mode they belong to (H u P_k u C_k), the all-cuts LP of the iteration.
    ``solved`` holds that LP's standard form and optimal solution, as the
    loop solved it: add look-ahead re-optimizes each pool cut into its
    tableau, and leave-one-out scoring reads off its basis which candidates
    are slack, both in its arithmetic.  ``None`` marks a replayed or
    hand-built state, which features read but no look-ahead scorer can.
    """

    base: LinearProgram
    active_cuts: list[Cut]
    pool: CutPool
    iter: int
    x_star: np.ndarray
    lp_value: float
    solved: Optional[tuple[StandardForm, LpSolution]] = None

    def candidates(self) -> list[Cut]:
        return list(self.active_cuts) + list(self.pool.cuts)


# Integers of this magnitude or more are not all representable in float64, so
# a snapped cut could no longer be exact, and its int64 gcd could wrap.
SNAP_LIMIT = 2.0 ** 53


def generate_cutpool(
    sol: LpSolution,
    sf: StandardForm,
    id_counter: Optional[Iterator[int]] = None,
    born_iter: int = 0,
) -> CutPool:
    """All Gomory cuts of the final tableau, mapped to original variables.

    A row is cut when its basic value is more than ``INTEGRALITY_TOL`` from an
    integer, so an integral optimum yields an empty pool.  Rows whose
    eliminated cut is numerically zero, or stops separating the fractional
    optimum after integer snapping, are skipped and logged.  A cut kept with non-integral or
    too-large coefficients (at or above ``SNAP_LIMIT``) is logged as a warning.
    An exact tableau derives each cut in ``Fraction`` arithmetic; the float
    cut it converts to then goes through the same snapping and checks.
    """
    if sol.status != OPTIMAL or sol.tableau is None:
        raise ValueError("cut generation requires an optimal solution with a tableau")
    ids = id_counter if id_counter is not None else itertools.count()
    tab = sol.tableau
    n = sf.num_vars
    L, v = tab.matrix, tab.rhs
    frac_dist = dist_to_int(v)
    rows = np.nonzero(frac_dist > INTEGRALITY_TOL)[0]
    cuts: list[Cut] = []
    if rows.size == 0:
        return CutPool(cuts)

    # One Gomory row per fractional basic value, all rows at once, in the
    # tableau's arithmetic; an exact cut is converted to float once derived.
    Lr = L[rows]
    G = np.floor(Lr) - Lr
    alpha = G[:, :n].copy()
    beta = np.floor(v[rows]) - v[rows]
    A_src, b_src = sf.aug[:, :n], sf.rhs
    if tab.exact:
        A_src, b_src = to_fractions(A_src), to_fractions(b_src)
    R = G[:, n:]
    alpha -= R @ A_src
    beta -= R @ b_src
    if tab.exact:
        alpha, beta = alpha.astype(float), beta.astype(float)
    else:  # float noise; an exact coefficient is never noise
        alpha[np.abs(alpha) < PIVOT_TOL] = 0.0

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
        if violation[k] <= FEASIBILITY_TOL:
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
            row_norm=math.sqrt(L[i].dot(L[i])),  # what np.linalg.norm computes
            frac_dist=float(frac_dist[i]),
        ))
    return CutPool(cuts)


def apply_cuts(lp: LinearProgram, cuts: Sequence[Cut]) -> LinearProgram:
    """The instance (H u P): base LP plus one <= row per cut."""
    if not cuts:
        return lp
    return lp.with_rows([c.alpha for c in cuts], [c.beta for c in cuts])


def ceil_snap(value: float) -> int:
    """ceil with snapping: a value within INTEGRALITY_TOL of an integer rounds to it.

    Guards the bound constraint against ceil(2.0000001) == 3 corruption; the
    true objective at integer points is integral because c is.
    """
    r = round(float(value))
    if abs(value - r) <= INTEGRALITY_TOL:
        return int(r)
    return int(math.ceil(value))


def bound_cut(objective: np.ndarray, lp_value: float, cut_id: int, born_iter: int) -> Cut:
    """The monotonicity constraint c @ x >= ceil(value), stored as -c @ x <= -ceil."""
    target = ceil_snap(lp_value)
    return Cut(
        alpha=-np.asarray(objective, dtype=float),
        beta=-float(target),
        id=cut_id,
        born_iter=born_iter,
        kind=BOUND,
    )
