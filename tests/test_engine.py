"""Cutting-plane loops: termination, monotonicity, budget bookkeeping, IGC."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from cutplane.engine import (
    ADD_ONLY,
    INTEGRAL_FOUND,
    ITER_LIMIT,
    REMOVAL,
    TRAJECTORY_FORMAT_VERSION,
    RunConfig,
    compute_igc,
    extend_curve,
    load_trajectory,
    run_add_only,
    run_policy,
    run_removal,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)
from cutplane import engine
from cutplane.gomory import BOUND, apply_cuts, ceil_snap
from cutplane.instances import InstanceSpec, generate
from cutplane.lp import FLOAT, LE, RATIONAL, LinearProgram, solve_lp
from cutplane.oracle import solve_ilp
from cutplane.policies import Policy

from brute_force import enumerate_integer_points, integer_box, validate_cut


def two_var_lp():
    return LinearProgram(
        objective=[-1.0, -1.0],
        A=[[3.0, 2.0], [-3.0, 2.0]],
        b=[6.0, 0.0],
        senses=[LE, LE],
        name="toy",
    )


def packing_lp(seed=0, n=5, m=5):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 6, size=(m, n)).astype(float)
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(m), j] = 1.0
    b = rng.integers(10, 16, size=m).astype(float)
    c = -rng.integers(1, 11, size=n).astype(float)
    return LinearProgram(objective=c, A=A, b=b, senses=[LE] * m, name=f"packing{seed}")


def test_integral_relaxation_stops_at_iteration_one():
    lp = LinearProgram(objective=[-1.0, -1.0], A=np.eye(2), b=[2.0, 3.0], senses=[LE, LE])
    traj = run_add_only(lp, Policy("random"), RunConfig(max_iters=10))
    assert traj.status == INTEGRAL_FOUND
    assert len(traj.records) == 1


def test_lookahead_strictly_improves_first_iteration():
    lp = two_var_lp()
    traj = run_add_only(lp, Policy("lookahead"), RunConfig(max_iters=2))
    assert len(traj.records) >= 2
    assert traj.records[1].lp_value > traj.records[0].lp_value + 1e-9


@pytest.mark.parametrize("policy", ["random", "mv", "mnv", "lex", "minsim", "lookahead"])
def test_add_only_lp_values_nondecreasing(policy):
    for seed in range(3):
        lp = packing_lp(seed)
        traj = run_add_only(lp, Policy(policy), RunConfig(max_iters=8, seed=seed))
        v = traj.lp_values
        assert np.all(np.diff(v) >= -1e-7)


def test_removal_budget_bookkeeping():
    """|P_1| = 0 and |P_{k+1}| = min(k+1, |P_k u C_k|) + 1 (retained plus bound cut)."""
    lp = packing_lp(3)
    traj = run_removal(lp, Policy("remove-random"), RunConfig(max_iters=8, seed=0))
    recs = traj.records
    assert recs[0].n_active == 0
    for prev, cur in zip(recs, recs[1:]):
        cands = prev.n_active + prev.pool_size
        assert cur.n_active == min(prev.k + 1, cands) + 1


def test_removal_pool_of_five_keeps_three():
    """At k=1 with a pool of >= 2 cuts, the next active set is 2 retained + 1 bound."""
    for seed in range(12):
        lp = packing_lp(seed)
        traj = run_removal(lp, Policy("remove-lookahead"), RunConfig(max_iters=2))
        if traj.records and traj.records[0].pool_size >= 2 and len(traj.records) >= 2:
            assert traj.records[1].n_active == 3
            return
    pytest.fail("no seed produced a first pool with >= 2 cuts")


def test_removal_lp_values_respect_bound_cut():
    lp = packing_lp(1)
    traj = run_removal(lp, Policy("remove-lookahead"), RunConfig(max_iters=8))
    v = traj.lp_values
    assert np.all(np.diff(v) >= -1e-7)
    for prev, cur in zip(v, v[1:]):
        assert cur >= ceil_snap(prev) - 1e-7


def test_removal_preserves_integer_optimum():
    lp = two_var_lp()
    base = solve_ilp(lp)
    traj = run_removal(lp, Policy("remove-lookahead"), RunConfig(max_iters=6))
    for rec in traj.records:
        active = [traj.cuts[i] for i in rec.active_ids]
        res = solve_ilp(apply_cuts(lp, active))
        assert res.value == base.value


def test_old_bound_cuts_are_regular_candidates():
    lp = packing_lp(2)
    traj = run_removal(lp, Policy("remove-random"), RunConfig(max_iters=8, seed=1))
    bound_ids = {i for i, c in traj.cuts.items() if c.kind == BOUND}
    assert bound_ids
    seen_as_candidate_again = any(
        set(rec.active_ids) & bound_ids for rec in traj.records[1:]
    )
    assert seen_as_candidate_again


def test_compute_igc_examples():
    lp = two_var_lp()
    traj = run_add_only(lp, Policy("lookahead"), RunConfig(max_iters=30))
    igc = compute_igc(traj, z_int=-2.0)
    assert igc[0] == 0.0
    assert np.all((igc >= 0.0) & (igc <= 1.0))
    assert np.all(np.diff(igc) >= 0.0)
    if traj.status == INTEGRAL_FOUND:
        assert igc[-1] == pytest.approx(1.0)


def test_compute_igc_direct_substitution():
    class Fake:
        lp_values = np.array([0.0, 2.0, 3.0])
    np.testing.assert_allclose(compute_igc(Fake(), 4.0), [0.0, 0.5, 0.75])


def test_compute_igc_zero_gap():
    class Fake:
        lp_values = np.array([5.0, 5.0])
    np.testing.assert_array_equal(compute_igc(Fake(), 5.0), [1.0, 1.0])


def test_extend_curve():
    np.testing.assert_array_equal(extend_curve(np.array([0.0, 0.5]), 4), [0.0, 0.5, 0.5, 0.5])


def test_run_policy_dispatch_and_roundtrip(tmp_path):
    lp = packing_lp(4)
    traj = run_policy(lp, "remove-random", RunConfig(max_iters=4), instance_id="abc")
    assert traj.mode == REMOVAL
    assert traj.instance_id == "abc"
    path = tmp_path / "traj.json"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert trajectory_to_dict(back) == trajectory_to_dict(traj)


TOP_KEYS = {"format_version", "instance_id", "policy_id", "mode", "status", "seed",
            "arithmetic", "records", "cuts"}
RECORD_KEYS = {"k", "lp_value", "pool_size", "n_active", "active_ids", "pool_ids",
               "selected_ids", "removed_ids", "x_star", "pool_scores"}
CUT_KEYS = {"alpha", "beta", "id", "born_iter", "kind", "basic_var", "row_norm", "frac_dist"}


@pytest.mark.parametrize("policy,arith", [("mv", FLOAT), ("remove-random", FLOAT),
                                          ("remove-random", RATIONAL)])
def test_trajectory_file_layout_and_byte_roundtrip(tmp_path, policy, arith):
    """The file layout is the dataclasses' field names, pinned here: renaming or
    adding a field fails this test and needs a TRAJECTORY_FORMAT_VERSION bump."""
    cfg = RunConfig(max_iters=4, seed=3, arithmetic=arith, record_scores=True)
    traj = run_policy(packing_lp(4), policy, cfg, instance_id="abc")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_trajectory(traj, first)
    save_trajectory(load_trajectory(first), second)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert set(doc) == TOP_KEYS
    assert doc["format_version"] == TRAJECTORY_FORMAT_VERSION
    assert doc["arithmetic"] == arith
    assert len(doc["records"]) > 1 and all(set(r) == RECORD_KEYS for r in doc["records"])
    assert doc["cuts"] and all(set(c) == CUT_KEYS for c in doc["cuts"].values())
    kinds = {c["kind"] for c in doc["cuts"].values()}
    assert (BOUND in kinds) == (policy == "remove-random")


def _drop_first_cut_alpha(doc):
    del next(iter(doc["cuts"].values()))["alpha"]


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(extra=1),
    lambda doc: doc.pop("instance_id"),
    lambda doc: doc.pop("records"),
    lambda doc: doc["records"][0].update(pivots=3),
    lambda doc: doc["records"][0].pop("lp_value"),
    _drop_first_cut_alpha,
    lambda doc: doc.update(format_version=TRAJECTORY_FORMAT_VERSION + 1),
])
def test_malformed_trajectory_file_raises_value_error_naming_path(tmp_path, corrupt):
    doc = trajectory_to_dict(run_policy(packing_lp(4), "remove-random", RunConfig(max_iters=2)))
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_trajectory(path)


@pytest.mark.parametrize("text", ['{"format_version": 1, "rec', '[1, 2]',
                                  '{"format_version": 1, "records": [], "cuts": []}'],
                         ids=["truncated", "list", "cuts-list"])
def test_unreadable_trajectory_file_raises_value_error_naming_path(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_trajectory(path)


@pytest.mark.parametrize("kind", ["random", "remove-random"])
@pytest.mark.parametrize("family", ["packing", "set_cover"])
def test_trajectory_seed_decides_random_draws(family, kind):
    """The recorded RunConfig.seed fixes a random policy's draws: one Policy
    runs the same trajectory twice, and a direct loop call equals run_policy."""
    lp = generate(InstanceSpec(family, "small", 1))
    cfg = RunConfig(max_iters=8, seed=3)
    run = run_removal if kind == "remove-random" else run_add_only
    policy = Policy(kind)
    first = trajectory_to_dict(run(lp, policy, cfg))
    assert trajectory_to_dict(run(lp, policy, cfg)) == first
    assert trajectory_to_dict(run_policy(lp, kind, cfg)) == first


def test_trajectories_deterministic():
    lp = packing_lp(5)
    t1 = run_policy(lp, "remove-random", RunConfig(max_iters=5, seed=7))
    t2 = run_policy(lp, "remove-random", RunConfig(max_iters=5, seed=7))
    assert trajectory_to_dict(t1) == trajectory_to_dict(t2)


@pytest.mark.parametrize("policy", ["mv", "remove-random"])
@pytest.mark.parametrize("family", ["packing", "max_cut"])
def test_rational_run_keeps_fractions_and_valid_cuts(family, policy, monkeypatch):
    """Exact mode end to end: every main-loop tableau holds only ``Fraction``
    entries, and every pool cut separates the optimum it was read from while
    keeping every integer point of its LP feasible."""
    base = generate(InstanceSpec(family, "tiny", 1))
    box = integer_box(base)
    solve_simplex, generate_cutpool = engine.solve_simplex, engine.generate_cutpool
    seen = {"solves": 0, "cuts": 0}

    def checked_solve(sf, objective, mode):
        sol = solve_simplex(sf, objective, mode)
        tab = sol.tableau
        for a in (tab.matrix, tab.rhs, tab.reduced_costs, sol.x):
            assert all(type(v) is Fraction for v in a.ravel())
        seen["solves"] += 1
        return sol

    def checked_pool(sol, sf, lp, **kwargs):
        pool = generate_cutpool(sol, sf, lp, **kwargs)
        pts = enumerate_integer_points(lp, box)
        x = sol.x.astype(float)
        for cut in pool:
            assert validate_cut(cut, x, pts)
        seen["cuts"] += len(pool)
        return pool

    monkeypatch.setattr(engine, "solve_simplex", checked_solve)
    monkeypatch.setattr(engine, "generate_cutpool", checked_pool)
    traj = run_policy(base, policy, RunConfig(max_iters=3, seed=1, arithmetic=RATIONAL))
    assert traj.arithmetic == RATIONAL
    assert seen["solves"] >= len(traj.records) and seen["cuts"] > 0
