"""Dual-simplex re-optimization: warm against cold, HiGHS z*, loud fallbacks, ties."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from cutplane import lp as lp_mod
from cutplane import oracle, policies
from cutplane.engine import RunConfig, run_policy
from cutplane.gomory import apply_cuts, generate_cutpool
from cutplane.instances import FAMILIES, InstanceSpec, generate
from cutplane.lp import (
    FLOAT,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    RATIONAL,
    CycleLimitExceeded,
    LinearProgram,
    factorize,
    reoptimize,
    solve_lp,
    solve_simplex,
    solve_warm,
    to_standard_form,
)
from cutplane.oracle import solve_ilp

from brute_force import integer_box
from test_lp import assert_exact_optimum

SEEDS = (1, 2, 3)


def assert_same_solve(warm, cold):
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))


def with_bound(lp, j, sense, value):
    """``lp`` plus the bound row ``x_j (sense) value``."""
    row = np.zeros((1, lp.num_vars))
    row[0, j] = 1.0
    return LinearProgram(lp.objective, np.vstack([lp.A, row]), np.append(lp.b, value),
                         list(lp.senses) + [sense], name=lp.name)


def warm_bound(parent_sol, lp, j, sense, value):
    sign = -1.0 if sense == GE else 1.0
    alpha = np.zeros(lp.num_vars)
    alpha[j] = sign
    return reoptimize(parent_sol, lp.objective, alpha, [sign * value])


@pytest.mark.parametrize("preset, mode", [pytest.param("small", FLOAT, id="small"),
                                           pytest.param("train", FLOAT, id="train"),
                                           pytest.param("tiny", RATIONAL, id="tiny-rational")])
def test_pool_cut_rows_warm_equals_cold(preset, mode):
    """Every pool cut of the first two add-only iterations, one row at a time.

    An exact tableau re-optimizes exactly: the warm optimum equals the cold
    one as a ``Fraction`` and holds only ``Fraction`` entries.
    """
    for family in FAMILIES:
        lp = generate(InstanceSpec(family, preset, 1))
        active = []
        for k in (1, 2):
            lp_k = apply_cuts(lp, active)
            sf = to_standard_form(lp_k)
            sol = solve_simplex(sf, lp_k.objective, mode)
            assert sol.status == OPTIMAL
            pool = generate_cutpool(sol, sf, lp_k, born_iter=k)
            if not pool.cuts:
                break
            for cut in pool.cuts:
                bigger = apply_cuts(lp_k, [cut])
                warm = reoptimize(sol, lp_k.objective, cut.alpha, [cut.beta])
                cold = solve_lp(bigger, mode)
                assert_same_solve(warm, cold)
                assert warm.tableau.matrix.shape[1] == to_standard_form(bigger).width
                if mode == RATIONAL:
                    assert warm.value == cold.value
                    assert_exact_optimum(warm, lp)
            active.append(pool.cuts[0])


def test_bound_rows_warm_equals_cold_including_infeasible_children():
    """Both children of every fractional variable at the root and one level down,
    from a refactorized parent, plus a child beyond the variable's LP maximum."""
    infeasible = 0
    for family in FAMILIES:
        lp = generate(InstanceSpec(family, "small", 1))
        ub = integer_box(lp)
        root = solve_lp(lp)
        nodes = [(lp, root)]
        for node_lp, node_sol in nodes[:2]:
            parent = factorize(to_standard_form(node_lp), node_lp.objective,
                               node_sol.tableau.basis)
            assert abs(parent.value - node_sol.value) <= 1e-9 * (1.0 + abs(node_sol.value))
            frac = np.flatnonzero(np.abs(node_sol.x - np.round(node_sol.x)) > 1e-6)
            for j in frac:
                v = node_sol.x[j]
                for sense, value in ((LE, math.floor(v)), (GE, math.ceil(v)),
                                     (GE, ub[j] + 1.0)):
                    child_lp = with_bound(node_lp, j, sense, value)
                    cold = solve_lp(child_lp)
                    assert_same_solve(warm_bound(parent, node_lp, j, sense, value), cold)
                    infeasible += cold.status == INFEASIBLE
                    if cold.status == OPTIMAL and len(nodes) < 2:
                        nodes.append((child_lp, cold))
    assert infeasible > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_ilp_matches_highs(family):
    optimize = pytest.importorskip("scipy.optimize")
    for seed in SEEDS:
        lp = generate(InstanceSpec(family, "small", seed))
        senses = np.array(lp.senses)
        lo = np.where(senses == LE, -np.inf, lp.b)
        hi = np.where(senses == GE, np.inf, lp.b)
        ref = optimize.milp(lp.objective, constraints=optimize.LinearConstraint(lp.A, lo, hi),
                            integrality=np.ones(lp.num_vars),
                            bounds=optimize.Bounds(0, np.inf), options={"mip_rel_gap": 0.0})
        assert ref.status == 0
        res = solve_ilp(lp)
        assert res.status == oracle.ILP_OPTIMAL
        assert res.value == pytest.approx(ref.fun, abs=1e-6)


# ---------------------------------------------------------------------------
# fallbacks: one WARNING each, and the cold result
# ---------------------------------------------------------------------------


def two_var_lp():
    """min -x1-x2 s.t. 3x1+2x2<=6, -3x1+2x2<=0: LP optimum (1, 1.5)."""
    return LinearProgram(objective=[-1.0, -1.0], A=[[3.0, 2.0], [-3.0, 2.0]],
                         b=[6.0, 0.0], senses=[LE, LE], name="two-var")


def warnings_of(caplog):
    return [r for r in caplog.records if r.levelno == logging.WARNING]


def test_pivot_cap_falls_back_to_cold(caplog, monkeypatch):
    lp = two_var_lp()
    child = with_bound(lp, 1, LE, 1.0)
    monkeypatch.setattr(lp_mod, "REOPT_CAP_FACTOR", 0)
    with pytest.raises(CycleLimitExceeded):
        reoptimize(solve_lp(lp), lp.objective, [0.0, 1.0], [1.0])
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        sol = solve_warm(lp, solve_lp(lp), [0.0, 1.0], [1.0])
    assert len(warnings_of(caplog)) == 1
    assert "pivot cap" in warnings_of(caplog)[0].getMessage()
    cold = solve_lp(child)
    assert sol.status == cold.status and sol.value == cold.value
    np.testing.assert_array_equal(sol.x, cold.x)


def test_warm_infeasible_child_is_confirmed_cold(caplog):
    """A warm INFEASIBLE that the cold solve confirms is logged at DEBUG only."""
    lp = two_var_lp()
    child = with_bound(lp, 0, GE, 3.0)  # 3x1 <= 6 allows x1 <= 2 only
    assert reoptimize(solve_lp(lp), lp.objective, [-1.0, 0.0], [-3.0]).status == INFEASIBLE
    with caplog.at_level(logging.DEBUG, logger="cutplane"):
        sol = solve_warm(lp, solve_lp(lp), [-1.0, 0.0], [-3.0])  # the row -x_0 <= -3
    assert sol.status == INFEASIBLE == solve_lp(child).status
    assert warnings_of(caplog) == []
    debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(debug) == 1
    assert "confirmed cold" in debug[0].getMessage()


def test_warm_infeasible_contradicted_cold_warns(caplog, monkeypatch):
    """A warm INFEASIBLE on a feasible child: one WARNING naming both statuses."""
    lp = two_var_lp()
    child = with_bound(lp, 1, LE, 1.0)
    monkeypatch.setattr(lp_mod, "reoptimize", lambda *args, **kwargs: lp_mod.LpSolution(INFEASIBLE))
    with caplog.at_level(logging.DEBUG, logger="cutplane"):
        sol = solve_warm(lp, solve_lp(lp), [0.0, 1.0], [1.0])
    cold = solve_lp(child)
    assert cold.status == OPTIMAL
    assert sol.status == OPTIMAL and sol.value == cold.value
    np.testing.assert_array_equal(sol.x, cold.x)
    assert len(warnings_of(caplog)) == 1
    message = warnings_of(caplog)[0].getMessage()
    assert "ended infeasible" in message and "ended optimal" in message


def test_exact_parent_falls_back_to_exact_cold(caplog, monkeypatch):
    """With re-optimization refused, an exact parent's child is solved cold in Fractions."""
    lp = two_var_lp()
    child = with_bound(lp, 1, LE, 1.0)
    parent = solve_lp(lp, RATIONAL)
    warm = reoptimize(parent, lp.objective, [0.0, 1.0], [1.0])
    cold = solve_lp(child, RATIONAL)
    assert warm.value == cold.value == Fraction(-7, 3)
    assert_exact_optimum(warm, child)
    slack = reoptimize(parent, lp.objective, [0.0, 1.0], [5.0])  # needs no pivot
    assert slack.value == parent.value
    assert_exact_optimum(slack, lp)

    def refuse(*args, **kwargs):
        raise CycleLimitExceeded("forced fallback")

    monkeypatch.setattr(lp_mod, "reoptimize", refuse)
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        sol = solve_warm(lp, parent, [0.0, 1.0], [1.0])
    assert len(warnings_of(caplog)) == 1
    assert sol.status == OPTIMAL and sol.value == cold.value
    assert_exact_optimum(sol, child)


@pytest.mark.parametrize("basis", [[0, 0], [0, 1, 2]], ids=["singular", "wrong-size"])
def test_bad_basis_solves_children_cold(caplog, basis):
    lp = two_var_lp()
    children = [with_bound(lp, 1, LE, 1.0), with_bound(lp, 1, GE, 2.0)]
    alpha, beta = np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, -2.0])
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        sols = oracle._solve_children(lp, np.array(basis), alpha, beta)
    assert len(warnings_of(caplog)) == 1
    assert "refactorize" in warnings_of(caplog)[0].getMessage()
    for sol, child in zip(sols, children):
        cold = solve_lp(child)
        assert sol.status == cold.status and sol.value == cold.value
        np.testing.assert_array_equal(sol.x, cold.x)


@pytest.mark.parametrize("root_capped", [False, True], ids=["children", "root"])
def test_nodes_lost_to_pivot_cap_leave_result_unproven(caplog, monkeypatch, root_capped):
    """Children (or the root) whose warm and cold solves both hit the pivot cap
    are lost: one WARNING naming the instance, and never a proven result."""
    lp = two_var_lp()
    real = lp_mod.solve_simplex
    calls = []

    def capped(*args, **kwargs):
        calls.append(1)
        if root_capped or len(calls) > 1:
            raise CycleLimitExceeded("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(lp_mod, "solve_simplex", capped)
    monkeypatch.setattr(lp_mod, "REOPT_CAP_FACTOR", 0)
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        res = solve_ilp(lp)
    assert res.proven is False
    lost = [r for r in warnings_of(caplog) if r.name == "cutplane.oracle"]
    assert len(lost) == 1
    assert "two-var" in lost[0].getMessage() and "pivot cap" in lost[0].getMessage()


# ---------------------------------------------------------------------------
# the tie rule makes decisions independent of warm or cold scoring
# ---------------------------------------------------------------------------


def _force_cold(monkeypatch):
    def refuse(*args, **kwargs):
        raise CycleLimitExceeded("forced fallback")

    monkeypatch.setattr(lp_mod, "reoptimize", refuse)
    monkeypatch.setattr(policies, "_basic_slack_mask",
                        lambda candidates, state: np.zeros(len(candidates), dtype=bool))


def _sweep():
    out = {}
    for family in FAMILIES:
        for preset in ("tiny", "small"):
            for seed in SEEDS:
                lp = generate(InstanceSpec(family, preset, seed))
                for policy in ("lookahead", "remove-lookahead"):
                    cfg = RunConfig(max_iters=4, seed=seed)
                    out[family, preset, seed, policy] = run_policy(lp, policy, cfg)
    return out


def test_decisions_identical_warm_and_cold(monkeypatch, caplog):
    warm = _sweep()
    _force_cold(monkeypatch)
    caplog.set_level(logging.ERROR, logger="cutplane")
    cold = _sweep()
    for key, tw in warm.items():
        tc = cold[key]
        assert tw.status == tc.status, key
        assert [r.selected_ids for r in tw.records] == [r.selected_ids for r in tc.records], key
        assert [r.removed_ids for r in tw.records] == [r.removed_ids for r in tc.records], key
        assert tw.lp_values.tolist() == tc.lp_values.tolist(), key
        for rw, rc in zip(tw.records, tc.records):
            if rc.pool_scores is None:
                assert rw.pool_scores is None
                continue
            np.testing.assert_allclose(rw.pool_scores, rc.pool_scores, rtol=1e-9, atol=1e-9)
