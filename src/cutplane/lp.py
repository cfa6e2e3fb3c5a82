"""Dense linear programs, standard-form conversion, and a two-phase primal simplex.

The solver is deliberately simple: dense tableau, Dantzig pricing with a Bland
fallback once pivots stop improving, and no presolve.  What matters here is that
the *final optimal tableau* is exposed, because Gomory cuts are read directly
from its rows.  Two arithmetic modes are supported: float64 (default) and exact
rationals via ``fractions.Fraction`` (the correctness oracle for the float path,
and the safe mode for tolerance-sensitive cut generation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# Row senses.
LE, GE, EQ = "<=", ">=", "="

# Solve statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Arithmetic modes.
FLOAT = "float"
RATIONAL = "rational"


class CycleLimitExceeded(RuntimeError):
    """Pivot count exceeded 50*(rows+cols): numerical pathology, not a model property."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across the package (overridable via CLI config)."""

    feasibility: float = 1e-7
    integrality: float = 1e-6
    pivot_zero: float = 1e-9


DEFAULT_TOLS = Tolerances()


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
    var_nonneg: bool = True
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
        bad = set(self.senses) - {LE, GE, EQ}
        if bad:
            raise ValueError(f"unknown senses: {bad}")
        if not self.var_nonneg:
            raise ValueError("only nonnegative variables are supported")

    def copy(self) -> "LinearProgram":
        return LinearProgram(
            self.objective.copy(), self.A.copy(), self.b.copy(), list(self.senses),
            self.var_nonneg, self.name,
        )


@dataclass
class StandardForm:
    """Equality system ``aug @ [x; s] = rhs`` with x, s >= 0.

    Every inequality row owns one +1 slack column (GE rows are negated first so
    the slack block is an identity at construction); EQ rows own none.
    ``row_of_slack`` maps a slack column index back to its source row, which is
    exactly what slack elimination of Gomory cuts needs.
    """

    aug: np.ndarray
    rhs: np.ndarray
    slack_offset: int
    row_of_slack: dict[int, int]
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
    pivot updates).  ``exact`` marks Fraction-valued tableaus.
    """

    basis: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    reduced_costs: np.ndarray
    exact: bool = False


@dataclass
class LpSolution:
    status: str
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    tableau: Optional[SimplexTableau] = None


def to_standard_form(lp: LinearProgram) -> StandardForm:
    """Append one +1 slack per inequality row; negate GE rows first."""
    lp.validate()
    n, m = lp.num_vars, lp.num_rows
    senses = np.array(lp.senses, dtype=object)
    ge = senses == GE
    ineq_rows = np.flatnonzero(senses != EQ)
    slack_cols = n + np.arange(ineq_rows.size)
    aug = np.zeros((m, n + ineq_rows.size))
    aug[:, :n] = np.where(ge[:, None], -lp.A, lp.A)
    aug[ineq_rows, slack_cols] = 1.0
    rhs = np.where(ge, -lp.b, lp.b)
    row_of_slack = dict(zip(slack_cols.tolist(), ineq_rows.tolist()))
    return StandardForm(aug=aug, rhs=rhs, slack_offset=n, row_of_slack=row_of_slack, num_vars=n)


def is_integral(x, tol: float = 1e-6) -> bool:
    """True iff every component is within ``tol`` of its nearest integer."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    arr = np.asarray(x)
    if arr.dtype == object:  # Fractions
        for v in arr.ravel():
            f = v - math.floor(v)
            if min(f, 1 - f) > tol:
                return False
        return True
    if arr.size == 0:
        return True
    return bool(np.max(np.abs(arr - np.round(arr))) <= tol)


def solve_simplex(
    sf: StandardForm,
    objective: Sequence[float],
    mode: str = FLOAT,
    tols: Tolerances = DEFAULT_TOLS,
) -> LpSolution:
    """Two-phase primal simplex on a standard form.

    Raises :class:`CycleLimitExceeded` when pivots exceed 50*(rows+cols); after
    5*(rows+cols) non-improving pivots the pricing rule switches from Dantzig
    to Bland, which guarantees termination short of numerical breakdown.
    """
    c = np.asarray(objective, dtype=float)
    if c.shape[0] != sf.num_vars:
        raise ValueError("objective length does not match the number of original variables")
    if mode == FLOAT:
        return _solve_float(sf, c, tols)
    if mode == RATIONAL:
        return _solve_exact(sf, c, tols)
    raise ValueError(f"unknown arithmetic mode: {mode!r}")


def solve_lp(lp: LinearProgram, mode: str = FLOAT, tols: Tolerances = DEFAULT_TOLS) -> LpSolution:
    """Convenience wrapper: standard form + simplex on the LP's own objective."""
    return solve_simplex(to_standard_form(lp), lp.objective, mode, tols)


# ---------------------------------------------------------------------------
# float64 path
# ---------------------------------------------------------------------------


def _pivot_float(T: np.ndarray, row: int, col: int, buf: np.ndarray) -> None:
    """Pivot T on (row, col) in place; ``buf`` is scratch space of T's shape."""
    piv = T[row, col]
    pr = T[row] / piv
    colv = T[:, col].copy()
    colv[row] = 0.0
    np.multiply(colv[:, None], pr, out=buf)
    T -= buf
    T[row] = pr
    # Reset the entering column exactly; keeps basis columns exact unit vectors.
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_pivots_float(T, basis, m, tols, bland_after, cycle_cap):
    """Minimize; last row of T holds reduced costs, T[m, -1] == -objective."""
    ptol = tols.pivot_zero
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
        ratios = np.maximum(T[pos, -1], 0.0) / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-9 * (1.0 + abs(best))]
        i = int(ties[0]) if ties.size == 1 else int(ties[basis[ties].argmin()])
        before = T[m, -1]
        _pivot_float(T, i, j, buf)
        basis[i] = j
        pivots += 1
        if pivots > cycle_cap:
            raise CycleLimitExceeded(f"exceeded {cycle_cap} pivots")
        if T[m, -1] > before + 1e-12:
            nonimp = 0
        else:
            nonimp += 1
            if nonimp > bland_after:
                bland = True


def _solve_float(sf: StandardForm, c: np.ndarray, tols: Tolerances) -> LpSolution:
    m, width = sf.aug.shape
    n = sf.num_vars
    if m == 0:
        if np.any(c < -tols.pivot_zero):
            return LpSolution(UNBOUNDED)
        tab = SimplexTableau(
            basis=np.empty(0, dtype=int), matrix=np.empty((0, width)),
            rhs=np.empty(0), reduced_costs=c.copy(),
        )
        return LpSolution(OPTIMAL, x=np.zeros(n), value=0.0, tableau=tab)

    work = sf.aug.copy()
    rhs = sf.rhs.copy()
    flip = rhs < 0
    work[flip] *= -1.0
    rhs[flip] *= -1.0

    slack_of_row = {r: j for j, r in sf.row_of_slack.items()}
    basis = np.full(m, -1, dtype=int)
    for i in range(m):
        j = slack_of_row.get(i)
        if j is not None and not flip[i]:
            basis[i] = j
    art_rows = np.nonzero(basis < 0)[0]
    n_art = art_rows.size
    bland_after = 5 * (m + width + n_art)
    cycle_cap = 50 * (m + width + n_art)

    if n_art:
        T = np.zeros((m + 1, width + n_art + 1))
        T[:m, :width] = work
        T[:m, -1] = rhs
        for a, i in enumerate(art_rows):
            T[i, width + a] = 1.0
            basis[i] = width + a
        T[m] = -T[art_rows].sum(axis=0)
        T[m, width:width + n_art] = 0.0
        status = _run_pivots_float(T, basis, m, tols, bland_after, cycle_cap)
        if status != OPTIMAL:
            raise CycleLimitExceeded("phase 1 became unbounded; numerical breakdown")
        if -T[m, -1] > tols.feasibility:
            return LpSolution(INFEASIBLE)
        drop = []
        buf = np.empty_like(T)
        for i in range(m):
            if basis[i] >= width:
                row = T[i, :width]
                cand = np.nonzero(np.abs(row) > tols.pivot_zero)[0]
                if cand.size == 0:
                    drop.append(i)  # redundant row
                else:
                    j = int(cand[np.argmax(np.abs(row[cand]))])
                    _pivot_float(T, i, j, buf)
                    basis[i] = j
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = T[keep + [m]]
            basis = basis[keep]
            m = len(keep)
        T = np.hstack([T[:, :width], T[:, -1:]])
    else:
        T = np.zeros((m + 1, width + 1))
        T[:m, :width] = work
        T[:m, -1] = rhs

    cx = np.zeros(width)
    cx[:n] = c
    T[m, :width] = cx
    T[m, -1] = 0.0
    for i in range(m):
        cb = cx[basis[i]]
        if cb != 0.0:
            T[m] -= cb * T[i]
    status = _run_pivots_float(T, basis, m, tols, bland_after, cycle_cap)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    xfull = np.zeros(width)
    xfull[basis] = np.maximum(T[:m, -1], 0.0)
    x = xfull[:n]
    tab = SimplexTableau(
        basis=basis.copy(),
        matrix=T[:m, :width].copy(),
        rhs=T[:m, -1].copy(),
        reduced_costs=T[m, :width].copy(),
    )
    return LpSolution(OPTIMAL, x=x, value=float(c @ x), tableau=tab)


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)


def _pivot_exact(T: list[list[Fraction]], row: int, col: int) -> None:
    piv = T[row][col]
    prow = [v / piv for v in T[row]]
    T[row] = prow
    for i, r in enumerate(T):
        if i == row:
            continue
        f = r[col]
        if f:
            T[i] = [a - f * b for a, b in zip(r, prow)]


def _run_pivots_exact(T, basis, m, bland_after, cycle_cap):
    nonimp = 0
    bland = False
    pivots = 0
    width = len(T[0]) - 1
    while True:
        r = T[m]
        j = -1
        if bland:
            for jj in range(width):
                if r[jj] < 0:
                    j = jj
                    break
            if j < 0:
                return OPTIMAL
        else:
            best = _F0
            for jj in range(width):
                if r[jj] < best:
                    best = r[jj]
                    j = jj
            if j < 0:
                return OPTIMAL
        best_ratio = None
        leave = -1
        for i in range(m):
            a = T[i][j]
            if a > 0:
                ratio = (T[i][-1] if T[i][-1] > 0 else _F0) / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        before = T[m][-1]
        _pivot_exact(T, leave, j)
        basis[leave] = j
        pivots += 1
        if pivots > cycle_cap:
            raise CycleLimitExceeded(f"exceeded {cycle_cap} pivots (exact mode)")
        if T[m][-1] > before:
            nonimp = 0
        else:
            nonimp += 1
            if nonimp > bland_after:
                bland = True


def _solve_exact(sf: StandardForm, c: np.ndarray, tols: Tolerances) -> LpSolution:
    m, width = sf.aug.shape
    n = sf.num_vars
    cf = [Fraction(float(v)) for v in c]
    if m == 0:
        if any(v < 0 for v in cf):
            return LpSolution(UNBOUNDED)
        tab = SimplexTableau(
            basis=np.empty(0, dtype=int),
            matrix=np.empty((0, width), dtype=object),
            rhs=np.empty(0, dtype=object),
            reduced_costs=np.array(cf, dtype=object),
            exact=True,
        )
        x = np.array([_F0] * n, dtype=object)
        return LpSolution(OPTIMAL, x=x, value=_F0, tableau=tab)

    work = [[Fraction(float(v)) for v in row] for row in sf.aug]
    rhs = [Fraction(float(v)) for v in sf.rhs]
    flip = [r < 0 for r in rhs]
    for i in range(m):
        if flip[i]:
            work[i] = [-v for v in work[i]]
            rhs[i] = -rhs[i]

    slack_of_row = {r: j for j, r in sf.row_of_slack.items()}
    basis = [-1] * m
    for i in range(m):
        j = slack_of_row.get(i)
        if j is not None and not flip[i]:
            basis[i] = j
    art_rows = [i for i in range(m) if basis[i] < 0]
    n_art = len(art_rows)
    bland_after = 5 * (m + width + n_art)
    cycle_cap = 50 * (m + width + n_art)

    if n_art:
        wtot = width + n_art
        T = [row + [_F0] * n_art + [rhs[i]] for i, row in enumerate(work)]
        for a, i in enumerate(art_rows):
            T[i][width + a] = _F1
            basis[i] = width + a
        cost = [_F0] * (wtot + 1)
        for i in art_rows:
            cost = [a - b for a, b in zip(cost, T[i])]
        for a in range(n_art):
            cost[width + a] = _F0
        T.append(cost)
        status = _run_pivots_exact(T, basis, m, bland_after, cycle_cap)
        if status != OPTIMAL:
            raise CycleLimitExceeded("phase 1 became unbounded (exact mode)")
        if -T[m][-1] > 0:
            return LpSolution(INFEASIBLE)
        drop = []
        for i in range(m):
            if basis[i] >= width:
                j = next((jj for jj in range(width) if T[i][jj] != 0), None)
                if j is None:
                    drop.append(i)
                else:
                    _pivot_exact(T, i, j)
                    basis[i] = j
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = [T[i] for i in keep] + [T[m]]
            basis = [basis[i] for i in keep]
            m = len(keep)
        T = [row[:width] + [row[-1]] for row in T]
    else:
        T = [row + [rhs[i]] for i, row in enumerate(work)]
        T.append([_F0] * (width + 1))

    cx = cf + [_F0] * (width - n)
    cost = list(cx) + [_F0]
    for i in range(m):
        cb = cx[basis[i]]
        if cb:
            cost = [a - cb * b for a, b in zip(cost, T[i])]
    T[m] = cost
    status = _run_pivots_exact(T, basis, m, bland_after, cycle_cap)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    xfull = [_F0] * width
    for i in range(m):
        xfull[basis[i]] = T[i][-1]
    x = np.array(xfull[:n], dtype=object)
    value = sum((a * b for a, b in zip(cf, xfull[:n])), _F0)
    tab = SimplexTableau(
        basis=np.array(basis, dtype=int),
        matrix=np.array([row[:width] for row in T[:m]], dtype=object),
        rhs=np.array([T[i][-1] for i in range(m)], dtype=object),
        reduced_costs=np.array(T[m][:width], dtype=object),
        exact=True,
    )
    return LpSolution(OPTIMAL, x=x, value=value, tableau=tab)
