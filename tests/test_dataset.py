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


def test_targets_match_lookahead_scores(lookahead_traj):
    """Recorded-score targets equal freshly re-solved ones within 1e-6."""
    lp, traj = lookahead_traj
    with_scores = build_dataset([traj], {"p11": lp}, family="packing")
    stripped = type(traj)(**{**traj.__dict__})
    stripped.records = [type(r)(**{**r.__dict__, "pool_scores": None}) for r in traj.records]
    recomputed = build_dataset([stripped], {"p11": lp}, family="packing")
    assert len(with_scores) == len(recomputed)
    for a, b in zip(with_scores, recomputed):
        assert a.target == pytest.approx(b.target, abs=1e-6)
        np.testing.assert_array_equal(a.features, b.features)


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
    corrupted = type(traj)(**{**traj.__dict__})
    corrupted.records = [type(r)(**{**r.__dict__}) for r in traj.records]
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
