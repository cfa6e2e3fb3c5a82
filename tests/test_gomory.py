"""Cut generation checked against exhaustive integer enumeration."""

import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from cutplane.gomory import (
    BOUND,
    Cut,
    apply_cuts,
    bound_cut,
    ceil_snap,
    generate_cutpool,
)
from cutplane.lp import (
    LE,
    OPTIMAL,
    RATIONAL,
    LinearProgram,
    LpSolution,
    SimplexTableau,
    StandardForm,
    solve_lp,
    solve_simplex,
    to_standard_form,
)
from cutplane.oracle import solve_ilp

from brute_force import enumerate_integer_points, integer_box, validate_cut


def two_var_example():
    """LP optimum (1, 1.5) is fractional; integer optimum value -2."""
    return LinearProgram(
        objective=[-1.0, -1.0],
        A=[[3.0, 2.0], [-3.0, 2.0]],
        b=[6.0, 0.0],
        senses=[LE, LE],
    )


def pool_for(lp, mode="float"):
    sf = to_standard_form(lp)
    sol = solve_simplex(sf, lp.objective, mode)
    return sol, sf, generate_cutpool(sol, sf, id_counter=itertools.count(), born_iter=1)


def test_integral_optimum_yields_empty_pool():
    lp = LinearProgram(objective=[-1.0, -1.0], A=np.eye(2), b=[2.0, 3.0], senses=[LE, LE])
    _, _, pool = pool_for(lp)
    assert len(pool) == 0


def test_two_var_pool_separates_and_preserves():
    lp = two_var_example()
    sol, _, pool = pool_for(lp)
    assert len(pool) >= 1
    pts = enumerate_integer_points(lp, bounds=[3, 3])
    for cut in pool:
        assert validate_cut(cut, sol.x, pts)
        assert cut.violation(sol.x) > 1e-7


def test_pool_size_equals_fractional_count():
    lp = two_var_example()
    sol, _, pool = pool_for(lp)
    v = sol.tableau.rhs
    n_frac = int(np.sum(np.abs(v - np.round(v)) > 1e-6))
    assert len(pool) == n_frac


def test_cut_coefficients_are_integers():
    """Integer data + all rows slacked: eliminated cuts must be integral."""
    lp = two_var_example()
    _, _, pool = pool_for(lp)
    for cut in pool:
        np.testing.assert_array_equal(cut.alpha, np.round(cut.alpha))
        assert cut.beta == round(cut.beta)


def test_exact_mode_matches_float_mode():
    lp = two_var_example()
    _, _, pool_f = pool_for(lp, "float")
    _, _, pool_e = pool_for(lp, RATIONAL)
    assert len(pool_f) == len(pool_e)
    fs = sorted((tuple(c.alpha), c.beta) for c in pool_f)
    es = sorted((tuple(c.alpha), c.beta) for c in pool_e)
    assert fs == es


def _fraction_cut(tab, sf, i):
    """The cut of tableau row ``i``, derived entry by entry in ``Fraction``."""
    g = [math.floor(e) - e for e in tab.matrix[i]]
    alpha = g[: sf.num_vars]
    beta = math.floor(tab.rhs[i]) - tab.rhs[i]
    for r in range(sf.num_rows):  # row r's slack is column num_vars + r
        j = sf.num_vars + r
        alpha = [a - g[j] * Fraction(float(sf.aug[r, col])) for col, a in enumerate(alpha)]
        beta -= g[j] * Fraction(float(sf.rhs[r]))
    return [float(a) for a in alpha], float(beta)


def test_exact_cuts_eliminate_slacks_in_fractions():
    """On one-decimal data an unsnapped exact cut is the float of its
    ``Fraction`` derivation; eliminating slacks in float differs in the last bits."""
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(30):
        lp = LinearProgram(objective=-rng.integers(1, 10, size=4).astype(float),
                           A=rng.integers(1, 31, size=(4, 4)) / 10,
                           b=rng.integers(10, 101, size=4) / 10, senses=[LE] * 4)
        sol, sf, pool = pool_for(lp, RATIONAL)
        row_of = {int(v): i for i, v in enumerate(sol.tableau.basis)}
        for cut in pool:
            alpha, beta = _fraction_cut(sol.tableau, sf, row_of[cut.basic_var])
            if max(abs(v - round(v)) for v in alpha + [beta]) <= 1e-6:
                continue  # snapped to integers and reduced
            assert cut.alpha.tolist() == alpha and cut.beta == beta
            checked += 1
    assert checked >= 100


def test_random_packing_cuts_validate():
    """Every generated cut on random packing draws is safe for all integer points."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = 4, 4
        A = rng.integers(0, 6, size=(m, n)).astype(float)
        for j in range(n):
            if not A[:, j].any():
                A[rng.integers(m), j] = 1.0
        b = rng.integers(6, 13, size=m).astype(float)
        c = -rng.integers(1, 10, size=n).astype(float)
        lp = LinearProgram(objective=c, A=A, b=b, senses=[LE] * m)
        sol, sf, pool = pool_for(lp)
        if len(pool) == 0:
            continue
        pts = enumerate_integer_points(lp, bounds=integer_box(lp))
        for cut in pool:
            assert validate_cut(cut, sol.x, pts)


def test_pool_cuts_keep_integer_optimum():
    lp = two_var_example()
    _, _, pool = pool_for(lp)
    base = solve_ilp(lp)
    with_cuts = solve_ilp(apply_cuts(lp, pool.cuts))
    assert base.value == with_cuts.value == -2


def test_bound_cut_safe_at_integer_optimum():
    lp = two_var_example()
    rel = solve_lp(lp)
    bc = bound_cut(lp.objective, rel.value, cut_id=99, born_iter=1)
    assert bc.kind == BOUND
    res = solve_ilp(lp)
    # c @ x_int >= ceil(c @ x_frac), i.e. the bound cut holds at the integer optimum.
    assert bc.violation(res.x_int) <= 1e-7
    assert solve_ilp(apply_cuts(lp, [bc])).value == res.value


def test_ceil_snap():
    assert ceil_snap(2.0000001) == 2
    assert ceil_snap(1.9999996) == 2
    assert ceil_snap(-2.5) == -2
    assert ceil_snap(2.3) == 3


def test_pool_size_bounded_by_tableau_rows():
    lp = two_var_example()
    sol, _, pool = pool_for(lp)
    assert len(pool) <= sol.tableau.matrix.shape[0]


def one_row_pool(a, b, caplog):
    """Pool of a hand-built tableau: x basic at 2.5 with slack entry 0.5 in the
    row x*a + s = b, so the eliminated cut is (a/2) x <= (b-1)/2."""
    sf = StandardForm(aug=np.array([[a, 1.0]]), rhs=np.array([b]), num_vars=1)
    tab = SimplexTableau(basis=np.array([0]), matrix=np.array([[1.0, 0.5]]),
                         rhs=np.array([2.5]), reduced_costs=np.array([0.0, 1.0]))
    sol = LpSolution(OPTIMAL, x=np.array([2.5]), value=-2.5, tableau=tab)
    with caplog.at_level(logging.WARNING, logger="cutplane.gomory"):
        pool = generate_cutpool(sol, sf, id_counter=itertools.count(), born_iter=1)
    return pool, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def test_non_integral_cut_kept_unsnapped_with_warning(caplog):
    pool, warnings = one_row_pool(1.0, 3.0, caplog)
    assert len(pool) == 1
    assert pool.cuts[0].alpha.tolist() == [0.5] and pool.cuts[0].beta == 1.0
    assert len(warnings) == 1 and "not integral" in warnings[0]


def test_cut_reaching_2_53_not_snapped_with_warning(caplog):
    """Integral, but past the float64 integers: no snap, so no int64 gcd that could wrap."""
    pool, warnings = one_row_pool(2.0 ** 54, 2.0 ** 54, caplog)
    assert len(pool) == 1
    assert pool.cuts[0].alpha.tolist() == [2.0 ** 53]
    assert len(warnings) == 1 and "2**53" in warnings[0]


def test_snapped_cut_logs_no_warning(caplog):
    pool, warnings = one_row_pool(4.0, 5.0, caplog)
    assert len(pool) == 1
    assert pool.cuts[0].alpha.tolist() == [1.0] and pool.cuts[0].beta == 1.0  # 2x <= 2, reduced
    assert warnings == []


def test_snapped_zero_rhs_is_positive_zero(caplog):
    """A right-hand side that rounds to zero from below is stored as +0.0."""
    pool, _ = one_row_pool(2.0, 1.0 - 1e-8, caplog)
    assert len(pool) == 1
    assert pool.cuts[0].alpha.tolist() == [1.0] and repr(pool.cuts[0].beta) == "0.0"
