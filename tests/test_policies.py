"""Selection policies and removal scorers."""

import itertools

import numpy as np
import pytest

from cutplane import policies
from cutplane.engine import CutPlaneState, RunConfig, run_add_only, run_policy, run_removal
from cutplane.gomory import Cut, CutPool, apply_cuts, generate_cutpool
from cutplane.instances import InstanceSpec, generate
from cutplane.lp import (
    FLOAT,
    LE,
    RATIONAL,
    LinearProgram,
    solve_lp,
    solve_simplex,
    to_standard_form,
)
from cutplane.policies import (
    EmptyPool,
    Policy,
    lookahead_add_scores,
    lookahead_remove_scores,
    select_addition,
    select_retained,
)


def two_var_state():
    lp = LinearProgram(
        objective=[-1.0, -1.0],
        A=[[3.0, 2.0], [-3.0, 2.0]],
        b=[6.0, 0.0],
        senses=[LE, LE],
    )
    sf = to_standard_form(lp)
    sol = solve_simplex(sf, lp.objective)
    pool = generate_cutpool(sol, sf, lp, id_counter=itertools.count(), born_iter=1)
    state = CutPlaneState(lp, [], pool, 1, np.asarray(sol.x, float), float(sol.value), (sf, sol))
    return lp, pool, state


def dummy_cut(cid, frac=0.5, basic=0, norm=1.0, born=1, alpha=(1.0, 1.0), beta=1.0):
    return Cut(alpha=np.array(alpha), beta=beta, id=cid, born_iter=born,
               basic_var=basic, row_norm=norm, frac_dist=frac)


def rng():
    return np.random.default_rng(0)


def dummy_state(cuts, k=1):
    lp = LinearProgram(objective=[1.0, 2.0], A=np.zeros((0, 2)), b=[], senses=[])
    return CutPlaneState(lp, [], CutPool(list(cuts)), k, np.zeros(2), 0.0)


def test_single_cut_pool_every_policy():
    cut = dummy_cut(7)
    state = dummy_state([cut])
    for kind in ("random", "mv", "mnv", "lex", "minsim"):
        assert select_addition(state.pool, state, Policy(kind), rng()) == 7


def test_empty_pool_raises():
    state = dummy_state([])
    with pytest.raises(EmptyPool):
        select_addition(state.pool, state, Policy("random"), rng())


def test_mv_picks_most_fractional():
    cuts = [dummy_cut(0, frac=0.5, basic=1), dummy_cut(1, frac=0.1, basic=0)]
    state = dummy_state(cuts)
    assert select_addition(state.pool, state, Policy("mv"), rng()) == 0


def test_mnv_divides_by_row_norm():
    cuts = [dummy_cut(0, frac=0.5, norm=10.0), dummy_cut(1, frac=0.3, norm=1.0)]
    state = dummy_state(cuts)
    assert select_addition(state.pool, state, Policy("mnv"), rng()) == 1


def test_lex_picks_smallest_fractional_index():
    cuts = [dummy_cut(0, basic=5), dummy_cut(1, basic=2)]
    state = dummy_state(cuts)
    assert select_addition(state.pool, state, Policy("lex"), rng()) == 1


def test_minsim_picks_least_objective_aligned():
    cuts = [dummy_cut(0, alpha=(1.0, 2.0)), dummy_cut(1, alpha=(-1.0, -2.0))]
    state = dummy_state(cuts)
    # objective (1, 2): cut 1 points against it -> cosine -1 -> selected
    assert select_addition(state.pool, state, Policy("minsim"), rng()) == 1


def test_random_deterministic_given_seed():
    cuts = [dummy_cut(i) for i in range(6)]
    state = dummy_state(cuts)
    policy = Policy("random")

    def picks():
        gen = np.random.default_rng(3)
        return [select_addition(state.pool, state, policy, gen) for _ in range(8)]

    assert picks() == picks()


def test_lookahead_attains_maximum():
    lp, pool, state = two_var_state()
    scores = lookahead_add_scores(pool, state)
    assert np.all(scores >= state.lp_value - 1e-9)
    chosen = select_addition(pool, state, Policy("lookahead"), rng(), precomputed_scores=scores)
    idx = pool.ids().index(chosen)
    # brute force: each augmented LP value, chosen must attain the max
    brute = [solve_lp(apply_cuts(lp, [c])).value for c in pool.cuts]
    assert scores[idx] == pytest.approx(max(brute), abs=1e-7)
    np.testing.assert_allclose(scores, brute, atol=1e-7)


def test_remove_scores_nonnegative_and_inactive_zero():
    lp, pool, state = two_var_state()
    # append a far-away redundant cut: x1 + x2 <= 100 never binds
    loose = Cut(alpha=np.array([1.0, 1.0]), beta=100.0, id=999, born_iter=1)
    cands = list(pool.cuts) + [loose]
    sf = to_standard_form(apply_cuts(lp, cands))
    full = solve_simplex(sf, lp.objective)
    state_full = CutPlaneState(lp, [], CutPool(cands), 1,
                               np.asarray(full.x, float), float(full.value), (sf, full))
    scores = lookahead_remove_scores(cands, state_full)
    assert np.all(scores >= 0.0)
    assert scores[-1] == pytest.approx(0.0, abs=1e-9)


def test_select_retained_identity_and_topk():
    cuts = [dummy_cut(i, born=1) for i in range(3)]
    assert select_retained(cuts, [3.0, 1.0, 2.0], budget=3) == [0, 2, 1]
    assert set(select_retained(cuts, [3.0, 1.0, 2.0], budget=2)) == {0, 2}
    assert set(select_retained(cuts[:2], [1.0, 1.0], budget=5)) == {0, 1}


def test_select_retained_tie_breaks():
    newer = dummy_cut(5, born=3)
    older = dummy_cut(2, born=1)
    oldest_low_id = dummy_cut(1, born=1)
    keep = select_retained([older, newer, oldest_low_id], [1.0, 1.0, 1.0], budget=2)
    assert keep == [5, 1]  # higher born_iter first, then lower id


def test_select_retained_scale_invariance():
    rng = np.random.default_rng(0)
    cuts = [dummy_cut(i, born=i % 3) for i in range(8)]
    scores = rng.random(8)
    base = select_retained(cuts, scores, budget=4)
    assert select_retained(cuts, scores * 7.3, budget=4) == base


def test_scorer_constructor_validation():
    with pytest.raises(ValueError):
        Policy("remove-neural")
    with pytest.raises(ValueError):
        Policy("neural")
    with pytest.raises(ValueError):
        Policy("nonsense")
    # A kind of the other loop is refused before the first solve.
    lp, _, _ = two_var_state()
    with pytest.raises(ValueError, match="does not run"):
        run_add_only(lp, Policy("remove-random"), RunConfig())
    with pytest.raises(ValueError, match="does not run"):
        run_removal(lp, Policy("mv"), RunConfig())


def test_rational_leave_one_out_solves_are_rational(monkeypatch):
    """Rational remove-lookahead solves its leave-one-out LPs cold in the
    arithmetic of the iteration's solved tableau: exact."""
    real = policies.solve_lp
    modes = []

    def spy(lp, mode=FLOAT):
        modes.append(mode)
        return real(lp, mode)

    monkeypatch.setattr(policies, "solve_lp", spy)
    lp = generate(InstanceSpec("max_cut", "tiny", 1))
    run_policy(lp, "remove-lookahead", RunConfig(max_iters=4, seed=1, arithmetic=RATIONAL))
    assert modes and set(modes) == {RATIONAL}
