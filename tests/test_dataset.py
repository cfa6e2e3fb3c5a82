"""Dataset builder: replayed targets, redundant-cut labels, file round trip."""

import re

import numpy as np
import pytest

from cutplane.engine import RunConfig, run_add_only
from cutplane.features import FEATURE_NAMES
from cutplane.gomory import apply_cuts
from cutplane import model
from cutplane.lp import FLOAT, LE, RATIONAL, LinearProgram, solve_lp
from cutplane.model import (
    ReplayMismatch,
    SchemaMismatch,
    build_dataset,
    load_dataset,
    save_dataset,
)
from cutplane.policies import Policy


def packing_lp(seed=0, n=5, m=5):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 6, size=(m, n)).astype(float)
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(m), j] = 1.0
    b = rng.integers(10, 16, size=m).astype(float)
    c = -rng.integers(1, 11, size=n).astype(float)
    return LinearProgram(objective=c, A=A, b=b, senses=[LE] * m, name=f"p{seed}")


@pytest.fixture(scope="module")
def lookahead_traj():
    lp = packing_lp(11)
    cfg = RunConfig(max_iters=6, record_scores=True)
    traj = run_add_only(lp, Policy("lookahead"), cfg, instance_id="p11")
    assert len(traj.records) >= 3
    return lp, traj


def test_sample_count(lookahead_traj):
    lp, traj = lookahead_traj
    samples = build_dataset([traj], {"p11": lp}, family="packing")
    expected = sum(len(r.pool_ids) + len(r.active_ids) for r in traj.records if r.pool_ids)
    assert len(samples) == expected


def _copy(traj, **record_fields):
    """A copy of ``traj`` whose records can be edited without touching it."""
    out = type(traj)(**{**traj.__dict__})
    out.records = [type(r)(**{**r.__dict__, **record_fields}) for r in traj.records]
    return out


def test_targets_match_lookahead_scores(lookahead_traj):
    """At every iteration, each pool cut's label is its cold one-cut-added
    improvement (value(H u P_k u {cut}) - v_k) / max(|v_k|, 1e-6) within 1e-6."""
    lp, traj = lookahead_traj
    samples = iter(build_dataset([traj], {"p11": lp}, family="packing"))
    checked = 0
    for rec in traj.records:
        if not rec.pool_ids:
            continue
        active = [traj.cuts[i] for i in rec.active_ids]
        vk = solve_lp(apply_cuts(lp, active)).value
        for cid in rec.pool_ids:
            s = next(samples)
            val = solve_lp(apply_cuts(lp, active + [traj.cuts[cid]])).value
            assert (s.iteration, s.features[-1]) == (rec.k, 1.0)
            assert s.target == pytest.approx((val - vk) / max(abs(vk), 1e-6), abs=1e-6)
            checked += 1
        for _ in active:
            assert next(samples).features[-1] == 0.0
    assert checked > len(traj.records[0].pool_ids)


def test_non_finite_score_loses_only_its_sample_and_nothing_is_resolved(lookahead_traj,
                                                                         monkeypatch):
    lp, traj = lookahead_traj
    full = build_dataset([traj], {"p11": lp}, family="packing")
    k = next(i for i, r in enumerate(traj.records) if i > 0 and len(r.pool_ids) > 1)
    lost = sum(len(r.pool_ids) + len(r.active_ids) for r in traj.records[:k] if r.pool_ids) + 1
    broken = _copy(traj)
    broken.records[k].pool_scores = list(traj.records[k].pool_scores)
    broken.records[k].pool_scores[1] = -np.inf
    real, solves = model.solve_lp, []

    def spy(lp, mode=FLOAT):
        solves.append(lp.num_rows)
        return real(lp, mode)

    monkeypatch.setattr(model, "solve_lp", spy)
    samples = build_dataset([broken], {"p11": lp}, family="packing")
    assert len(samples) == len(full) - 1
    for a, b in zip(samples, full[:lost] + full[lost + 1:]):
        assert (a.target, a.iteration) == (b.target, b.iteration)
        np.testing.assert_array_equal(a.features, b.features)
    replays = [lp.num_rows + len(r.active_ids) for r in traj.records if r.pool_ids]
    assert solves == replays


def test_record_without_pool_scores_raises_value_error_naming_instance(lookahead_traj):
    lp, traj = lookahead_traj
    with pytest.raises(ValueError, match="p11 iter 1"):
        build_dataset([_copy(traj, pool_scores=None)], {"p11": lp}, family="packing")


def test_targets_nonnegative_and_active_cuts_zero(lookahead_traj):
    lp, traj = lookahead_traj
    samples = build_dataset([traj], {"p11": lp}, family="packing")
    for s in samples:
        assert s.target >= -1e-7
    # the last feature flags pool membership; active-cut samples carry flag 0 and target 0
    old = [s for s in samples if s.features[-1] == 0.0]
    assert old and all(s.target == 0.0 for s in old)


def test_target_value_spotcheck(lookahead_traj):
    """First-iteration targets equal (value-with-cut - v_1) / |v_1| directly."""
    lp, traj = lookahead_traj
    samples = build_dataset([traj], {"p11": lp}, family="packing")
    rec = traj.records[0]
    v1 = rec.lp_value
    first = [s for s in samples if s.iteration == 1]
    for s, cid in zip(first, rec.pool_ids):
        cut = traj.cuts[cid]
        val = solve_lp(apply_cuts(lp, [cut])).value
        assert s.target == pytest.approx((val - v1) / abs(v1), abs=1e-6)


def test_replay_mismatch_detection(lookahead_traj):
    lp, traj = lookahead_traj
    corrupted = _copy(traj)
    corrupted.records[0].lp_value += 0.5
    with pytest.raises(ReplayMismatch):
        build_dataset([corrupted], {"p11": lp}, family="packing")


def test_dataset_file_round_trip(tmp_path, lookahead_traj):
    lp, traj = lookahead_traj
    samples = build_dataset([traj], {"p11": lp}, family="packing")
    path = tmp_path / "dataset.csv"
    save_dataset(samples, path)
    back = load_dataset(path)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        np.testing.assert_array_equal(a.features, b.features)
        assert a.target == b.target
        assert (a.family, a.instance_id, a.iteration) == (b.family, b.instance_id, b.iteration)


@pytest.mark.parametrize("row", [
    "0.5,1.5",
    ",".join(["0.5"] * 13 + ["x", "0.0", "packing", "p1", "1"]),
], ids=["short", "non-numeric"])
def test_malformed_dataset_row_raises_schema_mismatch_naming_path(tmp_path, row):
    path = tmp_path / "dataset.csv"
    header = FEATURE_NAMES + ["target", "family", "instance_id", "iteration"]
    path.write_text(",".join(header) + "\n" + row + "\n")
    with pytest.raises(SchemaMismatch, match=re.escape(f"{path} line 2")):
        load_dataset(path)


def test_replays_each_trajectory_in_its_own_arithmetic(monkeypatch):
    """A rational trajectory is replayed in exact arithmetic, without an option saying so."""
    lp = packing_lp(11)
    traj = run_add_only(lp, Policy("lookahead"), RunConfig(max_iters=3, arithmetic=RATIONAL),
                        instance_id="p11")
    real = model.solve_lp
    modes = []

    def spy(lp, mode=FLOAT):
        modes.append(mode)
        return real(lp, mode)

    monkeypatch.setattr(model, "solve_lp", spy)
    assert build_dataset([traj], {"p11": lp}, family="packing")
    assert modes and set(modes) == {RATIONAL}
