"""Simplex and standard-form tests, checked against brute-force vertex enumeration."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cutplane import lp as lp_mod
from cutplane.lp import (
    FLOAT,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    RATIONAL,
    UNBOUNDED,
    LinearProgram,
    is_integral,
    solve_lp,
    solve_simplex,
    to_standard_form,
)


def vertex_enumeration_value(lp):
    """Independent LP oracle: enumerate all basic solutions of the standard form.

    Every basis is a column subset of [A | I_slack]; a basic solution is feasible
    iff its components are >= 0.  Returns (status, value) with status one of
    "optimal"/"infeasible"/"unbounded"-agnostic (unboundedness is not detected;
    callers only use this on bounded instances).
    """
    sf = to_standard_form(lp)
    m, width = sf.aug.shape
    if m == 0:
        return OPTIMAL, 0.0
    c_ext = np.zeros(width)
    c_ext[: lp.num_vars] = lp.objective
    best = None
    for cols in itertools.combinations(range(width), m):
        B = sf.aug[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, sf.rhs)
        if np.min(xb) < -1e-9:
            continue
        val = float(c_ext[list(cols)] @ xb)
        if best is None or val < best:
            best = val
    if best is None:
        return INFEASIBLE, None
    return OPTIMAL, best


def random_lp(rng, n=None, m=None):
    """Random integer-coefficient LP with a guaranteed-bounded feasible region."""
    n = n or int(rng.integers(2, 6))
    m = m or int(rng.integers(1, 7))
    A = rng.integers(-3, 6, size=(m, n)).astype(float)
    # Box rows keep the region bounded whatever A looks like.
    box = np.eye(n)
    ub = rng.integers(2, 8, size=n).astype(float)
    A_all = np.vstack([A, box])
    b = np.concatenate([rng.integers(1, 10, size=m).astype(float), ub])
    senses = [LE] * (m + n)
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(objective=c, A=A_all, b=b, senses=senses)


def test_standard_form_single_le_row():
    lp = LinearProgram(objective=[1.0], A=[[1.0]], b=[4.0], senses=[LE])
    sf = to_standard_form(lp)
    assert sf.num_vars == 1
    assert sf.aug.tolist() == [[1.0, 1.0]]
    assert sf.rhs.tolist() == [4.0]


def test_standard_form_empty():
    lp = LinearProgram(objective=[1.0, 2.0], A=np.zeros((0, 2)), b=[], senses=[])
    sf = to_standard_form(lp)
    assert sf.aug.shape == (0, 2)
    assert sf.num_vars == 2


def test_standard_form_identity_block():
    """Two LE rows in two variables: the slack block must be the 2x2 identity."""
    lp = LinearProgram(
        objective=[1.0, 1.0],
        A=[[2.0, 1.0], [1.0, 3.0]],
        b=[4.0, 6.0],
        senses=[LE, LE],
    )
    sf = to_standard_form(lp)
    assert sf.aug.shape == (2, 4)
    np.testing.assert_allclose(sf.aug[:, 2:], np.eye(2))


def test_standard_form_ge_row_negated():
    lp = LinearProgram(objective=[1.0], A=[[1.0]], b=[1.0], senses=[GE])
    sf = to_standard_form(lp)
    # x >= 1 becomes -x + s = -1 with s >= 0.
    assert sf.aug.tolist() == [[-1.0, 1.0]]
    assert sf.rhs.tolist() == [-1.0]


def test_box_lp_optimum_at_corner():
    lp = LinearProgram(
        objective=[-1.0, -1.0],
        A=[[1.0, 0.0], [0.0, 1.0]],
        b=[2.0, 3.0],
        senses=[LE, LE],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, 3.0], atol=1e-9)
    assert sol.value == pytest.approx(-5.0, abs=1e-9)


def test_ge_row_needs_phase1():
    lp = LinearProgram(objective=[1.0], A=[[1.0]], b=[1.0], senses=[GE])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sense", ["=", "==", "<"])
def test_validate_refuses_rows_without_a_slack(sense):
    lp = LinearProgram(objective=[1.0, 2.0], A=[[1.0, 1.0]], b=[3.0], senses=[sense])
    with pytest.raises(ValueError, match="every row must be '<=' or '>=' and own a slack"):
        lp.validate()
    with pytest.raises(ValueError, match="own a slack"):
        solve_lp(lp)


def test_infeasible():
    lp = LinearProgram(
        objective=[1.0],
        A=[[1.0], [1.0]],
        b=[1.0, 3.0],
        senses=[LE, GE],
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(objective=[-1.0], A=np.zeros((0, 1)), b=[], senses=[])
    assert solve_lp(lp).status == UNBOUNDED


def test_degenerate_rhs_zero_rows():
    # x >= 0 rows with rhs 0 create degenerate pivots; Bland fallback must cope.
    lp = LinearProgram(
        objective=[1.0, 1.0],
        A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
        b=[0.0, 0.0, 2.0],
        senses=[LE, LE, GE],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_matches_vertex_enumeration_oracle():
    """The simplex, in either arithmetic, agrees with basic-solution enumeration."""
    for mode in (FLOAT, RATIONAL):
        rng = np.random.default_rng(20240601)
        checked = 0
        for _ in range(120):
            lp = random_lp(rng)
            status, ref = vertex_enumeration_value(lp)
            sol = solve_lp(lp, mode=mode)
            assert sol.status == status, mode
            if status == OPTIMAL:
                assert float(sol.value) == pytest.approx(ref, abs=1e-6), mode
                checked += 1
        assert checked > 60  # most draws should be feasible


def test_rational_agrees_with_float():
    """The same pivot rules run exactly reach the float path's optimal values.

    This checks the float arithmetic, not the algorithm: both modes run one
    solver, which vertex enumeration checks independently.
    """
    rng = np.random.default_rng(7)
    for _ in range(40):
        lp = random_lp(rng)
        f = solve_lp(lp, mode=FLOAT)
        e = solve_lp(lp, mode=RATIONAL)
        assert f.status == e.status
        if f.status == OPTIMAL:
            assert abs(f.value - float(e.value)) < 1e-6


def phase1_artificials(lp):
    """Rational solve of ``lp``, and the rows on which phase 1 left an artificial basic.

    The second value lists, in row order, the structural and slack entries of
    each row whose basic variable is still artificial when phase 1 ends.
    """
    sf = to_standard_form(lp)
    width = sf.aug.shape[1]
    left = []
    run_pivots = lp_mod._run_pivots

    def spy(T, basis, m, *args):
        status = run_pivots(T, basis, m, *args)
        if not left:  # the first call is phase 1
            left.append([T[i, :width].tolist() for i in range(m) if basis[i] >= width])
        return status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_mod, "_run_pivots", spy)
        sol = solve_simplex(sf, lp.objective, RATIONAL)
    return sol, left[0]


def assert_exact_optimum(sol, lp):
    """Fraction entries only, an exact identity at the basis, and a feasible x."""
    tab = sol.tableau
    arrays = (tab.matrix, tab.rhs, tab.reduced_costs, sol.x)
    assert all(type(v) is Fraction for a in arrays for v in a.ravel())
    assert type(sol.value) is Fraction
    assert (tab.matrix[:, tab.basis] == np.eye(len(tab.basis), dtype=int)).all()
    assert (tab.reduced_costs >= 0).all()
    assert all(v == 0 for v in tab.reduced_costs[tab.basis])
    lhs = lp.A.astype(int) @ sol.x
    for i, s in enumerate(lp.senses):
        assert {LE: lhs[i] <= lp.b[i], GE: lhs[i] >= lp.b[i]}[s]


def test_rational_phase1_pivots_artificial_out():
    """An artificial basic at zero level is pivoted out on the largest |entry|
    of its row, and every row stays.  Both GE rows keep their artificial; the
    first row is (0, -1, -3, -1, 0, -1, 0), where the largest |entry| picks x2
    (basis [2, 4, 0, 6]) and the first nonzero would pick x1 (basis
    [1, 2, 0, 6]).  Exact mode ends on the float basis."""
    lp = LinearProgram(objective=[0.0, -1.0, -3.0],
                       A=[[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 1.0, 1.0]],
                       b=[1.0, 1.0, 1.0, 4.0], senses=[GE, GE, LE, LE])
    sol, left = phase1_artificials(lp)
    assert len(left) == 2 and left[0] == [0, -1, -3, -1, 0, -1, 0]
    assert sol.status == OPTIMAL
    assert sol.tableau.basis.tolist() == solve_lp(lp).tableau.basis.tolist() == [2, 4, 0, 6]
    status, ref = vertex_enumeration_value(lp)
    assert status == OPTIMAL and sol.value == ref == solve_lp(lp).value
    assert_exact_optimum(sol, lp)


def test_optimal_solution_feasible_and_complementary():
    rng = np.random.default_rng(99)
    for _ in range(60):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            continue
        resid = lp.A @ sol.x - lp.b
        for i, s in enumerate(lp.senses):
            if s == LE:
                assert resid[i] <= 1e-7
            elif s == GE:
                assert resid[i] >= -1e-7
            else:
                assert abs(resid[i]) <= 1e-7
        tab = sol.tableau
        # Dual feasibility and complementary slackness of the returned basis.
        assert np.min(tab.reduced_costs) >= -1e-6
        assert np.max(np.abs(tab.reduced_costs[tab.basis])) <= 1e-6
        # Basis columns form an identity within tolerance.
        ident = tab.matrix[:, tab.basis]
        assert np.max(np.abs(ident - np.eye(len(tab.basis)))) <= 1e-9
        # value == c @ x (relative 1e-7)
        assert abs(sol.value - float(lp.objective @ sol.x)) <= 1e-7 * (1 + abs(sol.value))


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    lp = random_lp(rng)
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.tableau.matrix, s2.tableau.matrix)


def test_is_integral():
    assert is_integral([1.0, 2.0])
    assert not is_integral([1.5, 2.0])
    assert is_integral([0.9999995, 3.0000004])
