"""Dense linear programs, standard-form conversion, and a two-phase primal simplex.

The solver is deliberately simple: dense tableau, Dantzig pricing with a Bland
fallback once pivots stop improving, and no presolve.  What matters here is that
the *final optimal tableau* is exposed, because Gomory cuts are read directly
from its rows.  One solver serves two arithmetics, chosen by the tableau's
dtype: float64 (the default), and numpy object arrays of exact
``fractions.Fraction`` (``mode=RATIONAL``), where every tolerance of the pivot
rules is exactly 0.  A float tableau compares against the three module
constants ``FEASIBILITY_TOL``, ``INTEGRALITY_TOL`` and ``PIVOT_TOL``, which
are fixed, not settings.  Exact mode checks the arithmetic of the float path,
since both run the same pivot rules.  The independent checks of the algorithm
itself, brute-force vertex enumeration and HiGHS, live in the tests.

Every row is ``<=`` or ``>=`` (:meth:`LinearProgram.validate` refuses any other
sense), so row i owns slack column ``num_vars + i`` of its standard form; Gomory
cuts come out integral only when every row has one.

Most LPs the package solves are an LP it has just solved plus a few ``<=``
rows ``alpha @ x <= beta``: a pool cut for look-ahead scoring, a bound row
for a branch-and-bound child.  :meth:`LinearProgram.with_rows` is the one
place such rows are appended to an LP.  :func:`reoptimize` appends them to an
optimal tableau instead, each with its own +1 slack basic in its row, and
runs dual-simplex pivots, in the tableau's own arithmetic, until the new rows
are primal feasible (Bixby 2002, *Operations Research* 50(1)).  It works on a
copy, and its columns are laid out exactly as ``to_standard_form`` lays out
the bigger LP.  :func:`factorize` rebuilds an optimal float tableau from a
stored basis, and :func:`solve_warm` re-optimizes with a cold-solve fallback
that logs a WARNING with its reason.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Row senses.  There is no equality sense: every row owns a slack.
LE, GE = "<=", ">="

# Solve statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Arithmetic modes.
FLOAT = "float"
RATIONAL = "rational"


class CycleLimitExceeded(RuntimeError):
    """Pivot count exceeded 50*(rows+cols): numerical pathology, not a model property."""


class BasisError(ValueError):
    """A stored basis does not fit its standard form, or no longer factorizes."""


# Dual pivots :func:`reoptimize` allows per row and column of its tableau.
REOPT_CAP_FACTOR = 50


# The package's float tolerances: a primal value or cut violation within
# FEASIBILITY_TOL of 0 counts as 0, a value within INTEGRALITY_TOL of an integer
# as integral, and a pivot-candidate entry or reduced cost within PIVOT_TOL of 0
# as 0.  An exact (Fraction) tableau compares exactly and uses none of them.
FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
PIVOT_TOL = 1e-9


@dataclass
class LinearProgram:
    """min objective @ x  s.t.  A x (sense) b,  x >= 0.

    Instance generators emit integer-valued ``objective``, ``A`` and ``b``
    (stored as float64); nothing in the solver requires integrality, but the
    Gomory machinery does.
    """

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: list[str]
    name: str = ""

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim == 1:
            self.A = self.A.reshape(0, self.num_vars) if self.A.size == 0 else self.A.reshape(1, -1)
        self.senses = list(self.senses)

    @property
    def num_vars(self) -> int:
        return int(self.objective.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.A.shape[0])

    def validate(self) -> None:
        if self.A.shape != (len(self.senses), self.num_vars):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({len(self.senses)}, {self.num_vars})"
            )
        if self.b.shape != (self.num_rows,):
            raise ValueError(f"b has length {self.b.shape}, expected {self.num_rows}")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective has non-finite entries")
        if self.num_rows and not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("constraint data has non-finite entries")
        bad = set(self.senses) - {LE, GE}
        if bad:
            raise ValueError(f"senses {sorted(bad)} refused: every row must be "
                             f"'{LE}' or '{GE}' and own a slack")

    def with_rows(self, alpha, beta) -> "LinearProgram":
        """This LP plus the rows ``alpha @ x <= beta`` (one row: 1-D ``alpha``)."""
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        A = np.vstack([self.A, np.reshape(alpha, (-1, self.num_vars))])
        return LinearProgram(self.objective, A, np.concatenate([self.b, beta]),
                             self.senses + [LE] * beta.size, self.name)


@dataclass
class StandardForm:
    """Equality system ``aug @ [x; s] = rhs`` with x, s >= 0.

    Row i owns the +1 slack column ``num_vars + i``: GE rows are negated
    first, so ``aug`` is ``[±A | I]`` and ``rhs`` is ``±b``.  Slack
    elimination of Gomory cuts reads each slack's source row off this layout.
    """

    aug: np.ndarray
    rhs: np.ndarray
    num_vars: int

    @property
    def num_rows(self) -> int:
        return int(self.aug.shape[0])

    @property
    def width(self) -> int:
        return int(self.aug.shape[1])


@dataclass
class SimplexTableau:
    """Final optimal tableau: rows of ``matrix`` span original+slack columns.

    ``basis[i]`` is the column basic in row i, ``rhs[i]`` its value; columns
    indexed by ``basis`` form an identity (exactly, by construction of the
    pivot updates).  The arrays are float64, or object arrays of ``Fraction``
    for an exact tableau (``mode=RATIONAL``).
    """

    basis: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    reduced_costs: np.ndarray

    @property
    def exact(self) -> bool:
        return self.matrix.dtype == object


@dataclass
class LpSolution:
    status: str
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    tableau: Optional[SimplexTableau] = None


def to_standard_form(lp: LinearProgram) -> StandardForm:
    """``[±A | I] @ [x; s] = ±b``: GE rows negated, row i's slack in column n + i."""
    lp.validate()
    ge = np.array([s == GE for s in lp.senses], dtype=bool)
    aug = np.hstack([np.where(ge[:, None], -lp.A, lp.A), np.eye(lp.num_rows)])
    return StandardForm(aug=aug, rhs=np.where(ge, -lp.b, lp.b), num_vars=lp.num_vars)


def is_integral(x) -> bool:
    """True iff every component is within ``INTEGRALITY_TOL`` of its nearest integer."""
    arr = np.asarray(x)
    if arr.size == 0:
        return True
    return bool(dist_to_int(arr).max() <= INTEGRALITY_TOL)


def dist_to_int(v: np.ndarray) -> np.ndarray:
    """Distance of each entry to its nearest integer, in ``v``'s arithmetic.

    ``np.floor`` has a loop for ``Fraction`` objects and ``np.round`` has none;
    for float entries at or above 0 the result equals ``|v - round(v)|``.
    """
    f = v - np.floor(v)
    return np.minimum(f, 1 - f)


def to_fractions(a) -> np.ndarray:
    """``a`` as an object array of exact ``Fraction(float(v))`` entries."""
    a = np.asarray(a, dtype=float)
    return np.array([Fraction(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape)


def solve_simplex(
    sf: StandardForm,
    objective: Sequence[float],
    mode: str = FLOAT,
) -> LpSolution:
    """Two-phase primal simplex on a standard form.

    ``mode=RATIONAL`` converts the standard form and the objective to
    ``Fraction`` once and runs the same pivots exactly; the solution then holds
    ``Fraction`` values.  Raises :class:`CycleLimitExceeded` when pivots exceed
    50*(rows+cols); after 5*(rows+cols) non-improving pivots the pricing rule
    switches from Dantzig to Bland, which guarantees termination short of
    numerical breakdown.
    """
    c = np.asarray(objective, dtype=float)
    if c.shape[0] != sf.num_vars:
        raise ValueError("objective length does not match the number of original variables")
    if mode == RATIONAL:
        sf = replace(sf, aug=to_fractions(sf.aug), rhs=to_fractions(sf.rhs))
        c = to_fractions(c)
    elif mode != FLOAT:
        raise ValueError(f"unknown arithmetic mode: {mode!r}")
    return _two_phase(sf, c)


def solve_lp(lp: LinearProgram, mode: str = FLOAT) -> LpSolution:
    """Convenience wrapper: standard form + simplex on the LP's own objective."""
    return solve_simplex(to_standard_form(lp), lp.objective, mode)


# ---------------------------------------------------------------------------
# the two-phase simplex, in float64 or in exact Fraction arithmetic
# ---------------------------------------------------------------------------


def _zeros(shape, dtype) -> np.ndarray:
    """Zeros in the arithmetic of ``dtype``: ``Fraction(0)`` for an object array."""
    return np.full(shape, Fraction(0)) if dtype == object else np.zeros(shape)


def _margins(T: np.ndarray) -> tuple:
    """(pivot, feasibility, ratio-tie, improvement) margins of T's arithmetic.

    An exact (object) tableau compares exactly, so all four are 0.
    """
    if T.dtype == object:
        return 0, 0, 0, 0
    return PIVOT_TOL, FEASIBILITY_TOL, 1e-9, 1e-12


def _pivot(T: np.ndarray, row: int, col: int, buf: np.ndarray) -> None:
    """Pivot T on (row, col) in place; ``buf`` is scratch space of T's shape.

    The entering column comes out an exact unit vector in either arithmetic:
    its pivot-row entry is piv / piv, exactly 1, and every other row
    subtracts exactly its own entry, which leaves +0.
    """
    pr = T[row] / T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0
    np.multiply(colv[:, None], pr, out=buf)
    T -= buf
    T[row] = pr


def _run_pivots(T, basis, m, bland_after, cycle_cap):
    """Minimize; last row of T holds reduced costs, T[m, -1] == -objective."""
    ptol, _, tie, improve = _margins(T)
    nonimp = 0
    bland = False
    pivots = 0
    buf = np.empty_like(T)
    while True:
        r = T[m, :-1]
        if bland:
            neg = (r < -ptol).nonzero()[0]
            if neg.size == 0:
                return OPTIMAL
            j = int(neg[0])
        else:
            j = int(r.argmin())
            if r[j] >= -ptol:
                return OPTIMAL
        col = T[:m, j]
        pos = (col > ptol).nonzero()[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = np.maximum(T[pos, -1], 0) / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + tie * (1 + abs(best))]
        i = int(ties[0]) if ties.size == 1 else int(ties[basis[ties].argmin()])
        before = T[m, -1]
        _pivot(T, i, j, buf)
        basis[i] = j
        pivots += 1
        if pivots > cycle_cap:
            raise CycleLimitExceeded(f"exceeded {cycle_cap} pivots")
        if T[m, -1] > before + improve:
            nonimp = 0
        else:
            nonimp += 1
            if nonimp > bland_after:
                bland = True


def _two_phase(sf: StandardForm, c: np.ndarray) -> LpSolution:
    m, width = sf.aug.shape
    n = sf.num_vars
    dtype = sf.aug.dtype
    work = sf.aug.copy()
    rhs = sf.rhs.copy()
    flip = rhs < 0
    work[flip] *= -1
    rhs[flip] *= -1

    # A row keeps its slack basic unless flipping its sign made the slack -1.
    basis = np.where(flip, -1, n + np.arange(m))
    art_rows = np.nonzero(basis < 0)[0]
    n_art = art_rows.size
    bland_after = 5 * (m + width + n_art)
    cycle_cap = 50 * (m + width + n_art)

    T = _zeros((m + 1, width + n_art + 1), dtype)
    T[:m, :width] = work
    T[:m, -1] = rhs
    if n_art:
        for a, i in enumerate(art_rows):
            T[i, width + a] = 1
            basis[i] = width + a
        T[m] = -T[art_rows].sum(axis=0)
        T[m, width:width + n_art] = 0
        status = _run_pivots(T, basis, m, bland_after, cycle_cap)
        if status != OPTIMAL:
            raise CycleLimitExceeded("phase 1 became unbounded; numerical breakdown")
        _, feasibility, _, _ = _margins(T)
        if -T[m, -1] > feasibility:
            return LpSolution(INFEASIBLE)
        # Drive each artificial still basic (at zero level) out on the largest
        # |entry| of its row.  No row is redundant: the slack columns of each
        # row of T[:m, :width] hold ± a row of B⁻¹, so no row is zero.
        buf = np.empty_like(T)
        for i in np.nonzero(basis >= width)[0]:
            j = int(np.argmax(np.abs(T[i, :width])))
            _pivot(T, i, j, buf)
            basis[i] = j
        T = np.hstack([T[:, :width], T[:, -1:]])

    cx = _zeros(width + 1, dtype)
    cx[:n] = c
    T[m] = cx
    for i in range(m):
        cb = cx[basis[i]]
        if cb != 0:
            T[m] -= cb * T[i]
    status = _run_pivots(T, basis, m, bland_after, cycle_cap)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)
    return _optimal_solution(T, basis, m, c)


def _optimal_solution(T: np.ndarray, basis: np.ndarray, m: int, c: np.ndarray) -> LpSolution:
    """The optimal solution held by a final tableau (reduced costs in row m).

    An exact tableau gives ``Fraction`` values of x and of the objective.
    """
    width = T.shape[1] - 1
    xfull = _zeros(width, T.dtype)
    xfull[basis] = np.maximum(T[:m, -1], 0)
    x = xfull[:c.shape[0]]
    tab = SimplexTableau(
        basis=basis.copy(),
        matrix=T[:m, :width].copy(),
        rhs=T[:m, -1].copy(),
        reduced_costs=T[m, :width].copy(),
    )
    value = c @ x
    return LpSolution(OPTIMAL, x=x, value=value if tab.exact else float(value), tableau=tab)


# ---------------------------------------------------------------------------
# re-optimization from a known basis
# ---------------------------------------------------------------------------


def _dual_pivots(T, basis, m, cycle_cap):
    """Dual simplex on a dual-feasible tableau: pivot the most negative basic
    value out until none is below -PIVOT_TOL (0 for an exact tableau)."""
    ptol, _, tie, _ = _margins(T)
    pivots = 0
    buf = np.empty_like(T)
    while True:
        v = T[:m, -1]
        i = int(v.argmin())
        if v[i] >= -ptol:
            return OPTIMAL
        row = T[i, :-1]
        neg = (row < -ptol).nonzero()[0]
        if neg.size == 0:
            return INFEASIBLE  # the row's basic variable cannot be raised to zero
        ratios = np.maximum(T[m, neg], 0) / -row[neg]
        best = ratios.min()
        ties = neg[ratios <= best + tie * (1 + abs(best))]
        j = int(ties[0]) if ties.size == 1 else int(ties[np.abs(row[ties]).argmax()])
        _pivot(T, i, j, buf)
        basis[i] = j
        pivots += 1
        if pivots > cycle_cap:
            raise CycleLimitExceeded(f"exceeded {cycle_cap} dual pivots")


def reoptimize(
    sol: LpSolution,
    objective: Sequence[float],
    alpha: np.ndarray,
    beta: Sequence[float],
) -> LpSolution:
    """Optimum of ``sol``'s LP plus the rows ``alpha @ x <= beta``, by dual simplex.

    ``sol`` must be an optimal solution with a tableau; it is not modified.
    The re-optimization runs in the tableau's arithmetic: an exact tableau
    converts ``objective``, ``alpha`` and ``beta`` to ``Fraction`` and gives
    an exact optimum.  Row i of ``alpha`` gets slack column ``width + i``,
    where ``width`` is the parent tableau's column count, as
    ``to_standard_form`` numbers the slacks of appended ``<=`` rows.  The
    parent basis stays dual feasible, so dual pivots restore primal
    feasibility; a primal pass then removes any reduced cost that noise left
    below -PIVOT_TOL.  Returns status INFEASIBLE when a violated row cannot
    be repaired, and raises :class:`CycleLimitExceeded` after
    ``REOPT_CAP_FACTOR * (rows + columns)`` pivots.
    """
    tab = sol.tableau
    if sol.status != OPTIMAL or tab is None:
        raise ValueError("re-optimization needs an optimal solution with a tableau")
    c = np.asarray(objective, dtype=float)
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if tab.exact:
        c, alpha, beta = to_fractions(c), to_fractions(alpha), to_fractions(beta)
    dtype = tab.matrix.dtype
    zero, one = (Fraction(0), Fraction(1)) if tab.exact else (0.0, 1.0)
    m, width = tab.matrix.shape
    k = alpha.shape[0]
    mk = m + k
    T = _zeros((mk + 1, width + k + 1), dtype)
    T[:m, :width] = tab.matrix
    T[:m, -1] = tab.rhs
    # Express each new row in the nonbasic columns: subtract its basic part.
    rows = _zeros((k, width), dtype)
    rows[:, :c.shape[0]] = alpha
    coef = rows[:, tab.basis]
    T[m:mk, :width] = rows - coef @ tab.matrix
    T[m:mk, tab.basis] = zero
    T[m:mk, -1] = beta - coef @ tab.rhs
    T[np.arange(m, mk), np.arange(width, width + k)] = one
    T[mk, :width] = tab.reduced_costs
    T[mk, -1] = -sol.value
    basis = np.concatenate([tab.basis, np.arange(width, width + k)])
    cap = REOPT_CAP_FACTOR * (mk + width + k)
    status = _dual_pivots(T, basis, mk, cap)
    if status == OPTIMAL:
        status = _run_pivots(T, basis, mk, cap // 10, cap)
    if status != OPTIMAL:
        return LpSolution(status)
    return _optimal_solution(T, basis, mk, c)


def factorize(
    sf: StandardForm,
    objective: Sequence[float],
    basis: Sequence[int],
) -> LpSolution:
    """The optimal solution of ``sf`` at a basis it was solved to, rebuilt.

    One ``np.linalg.solve`` with the basis matrix gives every tableau row and
    the basic values; the reduced costs follow from them.  Raises
    :class:`BasisError` when the basis does not have one column per row, its
    matrix is singular, or the rebuilt tableau is not optimal (primal values
    below -FEASIBILITY_TOL, reduced costs below -PIVOT_TOL).
    """
    c = np.asarray(objective, dtype=float)
    basis = np.asarray(basis, dtype=int)
    m, width = sf.aug.shape
    if basis.shape != (m,):
        raise BasisError(f"basis has {basis.size} columns for {m} rows")
    try:
        rows = np.linalg.solve(sf.aug[:, basis], np.column_stack([sf.aug, sf.rhs]))
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"basis matrix is singular ({exc})") from None
    if not np.all(np.isfinite(rows)):
        raise BasisError("basis matrix is singular (non-finite tableau)")
    T = np.zeros((m + 1, width + 1))
    T[:m] = rows
    T[:m, basis] = 0.0
    T[np.arange(m), basis] = 1.0
    cx = np.zeros(width)
    cx[:sf.num_vars] = c
    T[m, :width] = cx - cx[basis] @ T[:m, :width]
    T[m, basis] = 0.0
    if T[:m, -1].min(initial=0.0) < -FEASIBILITY_TOL:
        raise BasisError("basis is not primal feasible")
    if T[m, :width].min(initial=0.0) < -PIVOT_TOL:
        raise BasisError("basis is not dual feasible")
    return _optimal_solution(T, basis, m, c)


def solve_warm(
    lp: LinearProgram,
    parent: LpSolution,
    alpha: np.ndarray,
    beta: Sequence[float],
) -> LpSolution:
    """Solve ``lp`` plus the rows ``alpha @ x <= beta``; ``parent`` is ``lp``'s optimum.

    The rows are re-optimized into ``parent``'s tableau, in its arithmetic.
    On the pivot cap or any status but OPTIMAL, the bigger LP
    (``lp.with_rows(alpha, beta)``) is built and solved cold in that same
    arithmetic.  A warm INFEASIBLE is thus always confirmed by a cold solve:
    at DEBUG when the cold solve agrees, with a WARNING naming both statuses
    when it does not.  The pivot cap and any other status log a WARNING with
    the reason.
    """
    name = lp.name or "LP"
    mode = RATIONAL if parent.tableau.exact else FLOAT
    try:
        warm = reoptimize(parent, lp.objective, alpha, beta)
    except CycleLimitExceeded as exc:
        reason = f"hit the pivot cap ({exc})"
    else:
        if warm.status == OPTIMAL:
            return warm
        if warm.status == INFEASIBLE:
            cold = solve_lp(lp.with_rows(alpha, beta), mode)
            if cold.status == INFEASIBLE:
                logger.debug("%s: warm re-optimization ended infeasible; confirmed cold", name)
            else:
                logger.warning("%s: warm re-optimization ended infeasible, but the cold "
                               "solve ended %s", name, cold.status)
            return cold
        reason = f"ended {warm.status}"
    logger.warning("%s: warm re-optimization %s; solving cold", name, reason)
    return solve_lp(lp.with_rows(alpha, beta), mode)
