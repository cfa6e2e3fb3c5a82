"""Branch-and-bound oracle crosschecked against exhaustive enumeration."""

import numpy as np
import pytest

from cutplane.lp import GE, LE, LinearProgram, solve_lp
from cutplane.oracle import (
    ILP_INFEASIBLE,
    ILP_NODE_LIMIT,
    ILP_OPTIMAL,
    IlpResult,
    solve_ilp,
)

from brute_force import TooLarge, enumerate_integer_points, integer_box


def small_random_ilp(rng, n_max=5):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, 5))
    A = rng.integers(-2, 5, size=(m, n)).astype(float)
    b = rng.integers(1, 9, size=m).astype(float)
    ub = rng.integers(1, 5, size=n).astype(float)
    A_all = np.vstack([A, np.eye(n)])
    b_all = np.concatenate([b, ub])
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(objective=c, A=A_all, b=b_all, senses=[LE] * (m + n))


def test_integral_relaxation_returns_immediately():
    lp = LinearProgram(objective=[-1.0, -1.0], A=np.eye(2), b=[2.0, 3.0], senses=[LE, LE])
    res = solve_ilp(lp)
    assert res.status == ILP_OPTIMAL
    assert res.value == -5
    assert res.nodes_explored == 1
    np.testing.assert_array_equal(res.x_int, [2, 3])


def two_var_lp():
    """min -x1-x2 s.t. 3x1+2x2<=6, -3x1+2x2<=0: LP optimum (1, 1.5), ILP optimum -2."""
    return LinearProgram(
        objective=[-1.0, -1.0],
        A=[[3.0, 2.0], [-3.0, 2.0]],
        b=[6.0, 0.0],
        senses=[LE, LE],
    )


def test_two_var_fractional_example():
    lp = two_var_lp()
    rel = solve_lp(lp)
    np.testing.assert_allclose(rel.x, [1.0, 1.5], atol=1e-9)
    res = solve_ilp(lp)
    assert res.status == ILP_OPTIMAL
    assert res.value == -2
    # crosscheck against the brute-force enumeration
    pts = enumerate_integer_points(lp, bounds=[3, 3])
    vals = pts @ np.array([-1, -1])
    assert int(vals.min()) == -2


def test_infeasible_ilp():
    lp = LinearProgram(objective=[1.0], A=[[1.0], [1.0]], b=[1.0, 3.0], senses=[LE, GE])
    assert solve_ilp(lp).status == ILP_INFEASIBLE


def test_ilp_without_rows():
    lp = LinearProgram(objective=[1.0, 2.0], A=np.zeros((0, 2)), b=[], senses=[])
    res = solve_ilp(lp)
    assert res.status == ILP_OPTIMAL and res.value == 0
    np.testing.assert_array_equal(res.x_int, [0, 0])


def test_enumerate_empty_region():
    lp = LinearProgram(objective=[1.0], A=[[1.0], [-1.0]], b=[1.0, -3.0], senses=[LE, LE])
    pts = enumerate_integer_points(lp, bounds=[5])
    assert pts.shape == (0, 1)


def test_enumerate_box_no_rows():
    lp = LinearProgram(objective=[1.0, 1.0], A=np.zeros((0, 2)), b=[], senses=[])
    pts = enumerate_integer_points(lp, bounds=[2, 2])
    assert pts.shape == (9, 2)


def test_enumerate_too_large():
    lp = LinearProgram(objective=np.ones(9), A=np.zeros((0, 9)), b=[], senses=[])
    with pytest.raises(TooLarge):
        enumerate_integer_points(lp, bounds=[9] * 9)


def test_bnb_matches_enumeration():
    """B&B value equals exhaustive-enumeration value on every solvable draw."""
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(80):
        lp = small_random_ilp(rng)
        box = integer_box(lp)
        pts = enumerate_integer_points(lp, bounds=box)
        res = solve_ilp(lp)
        if pts.shape[0] == 0:
            assert res.status == ILP_INFEASIBLE
            continue
        vals = pts @ np.round(lp.objective).astype(np.int64)
        assert res.status == ILP_OPTIMAL
        assert res.value == int(vals.min())
        assert res.value >= solve_lp(lp).value - 1e-6  # z*_frac <= z*_int
        agree += 1
    assert agree > 40


def test_node_limit_flags_unproven():
    """The two-variable example's root is fractional, so one node leaves it unproven."""
    res = solve_ilp(two_var_lp(), node_limit=1)
    assert isinstance(res, IlpResult)
    assert res.status == ILP_NODE_LIMIT
    assert res.proven is False
    assert res.x_int is None
    assert res.nodes_explored == 1


def test_bnb_matches_milp_on_non_integer_data():
    """One-decimal data takes the float branch of the integer-feasibility check,
    the one that guards H u P_k holding unsnapped cuts; HiGHS is the referee."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for _ in range(30):
        A = rng.integers(1, 31, size=(3, 4)) / 10
        b = rng.integers(10, 101, size=3) / 10
        c = -rng.integers(1, 31, size=4) / 10
        lp = LinearProgram(objective=c, A=A, b=b, senses=[LE] * 3)
        ref = optimize.milp(c, constraints=optimize.LinearConstraint(A, -np.inf, b),
                           integrality=np.ones(4))
        res = solve_ilp(lp)
        assert res.status == ILP_OPTIMAL
        assert res.value == pytest.approx(ref.fun, abs=1e-9)
