"""Feature encoder contract tests."""

import numpy as np
import pytest

from cutplane.engine import CutPlaneState
from cutplane.features import FEATURE_NAMES, NUM_FEATURES, ZeroNormCut, encode
from cutplane.gomory import Cut, CutPool
from cutplane.lp import LE, LinearProgram


def make_state(c, x, k=3):
    n = len(c)
    lp = LinearProgram(objective=c, A=np.zeros((0, n)), b=[], senses=[])
    return CutPlaneState(
        base=lp, active_cuts=[], pool=CutPool([]), iter=k,
        x_star=np.asarray(x, dtype=float), lp_value=0.0,
    )


def cut(alpha, beta, born=3, cid=0):
    return Cut(alpha=np.asarray(alpha, dtype=float), beta=beta, id=cid, born_iter=born)


def test_layout():
    assert len(FEATURE_NAMES) == NUM_FEATURES == 14
    state = make_state([1.0, 2.0], [0.5, 0.5])
    f = encode(cut([1.0, 1.0], 1.0), state)
    assert f.shape == (14,)
    assert np.all(np.isfinite(f))


def test_parallelism_one_when_aligned():
    state = make_state([2.0, 4.0, 6.0], [0.0, 0.0, 0.0])
    f = encode(cut([1.0, 2.0, 3.0], 5.0), state)
    assert f[8] == pytest.approx(1.0)


def test_satisfied_cut_has_zero_violation():
    state = make_state([1.0, 1.0], [0.0, 0.0])
    f = encode(cut([1.0, 1.0], 5.0), state)
    assert f[12] == 0.0
    assert f[9] < 0  # efficacy is signed: negative when x* satisfies the cut


def test_support_fraction():
    state = make_state([1.0] * 4, [0.0] * 4)
    f = encode(cut([1.0, 0.0, 0.0, 0.0], 1.0), state)
    assert f[10] == pytest.approx(0.25)
    assert f[11] == pytest.approx(1.0)


def test_latest_pool_flag():
    state = make_state([1.0, 1.0], [0.0, 0.0], k=4)
    assert encode(cut([1.0, 0.0], 1.0, born=4), state)[13] == 1.0
    assert encode(cut([1.0, 0.0], 1.0, born=2), state)[13] == 0.0


def test_positive_scaling_leaves_geometry_unchanged():
    state = make_state([1.0, 2.0, 1.0], [0.7, 0.3, 0.4])
    base = encode(cut([2.0, -1.0, 3.0], 2.0), state)
    scaled = encode(cut([6.0, -3.0, 9.0], 6.0), state)
    # parallelism, efficacy, support, integral support, violation, flag
    np.testing.assert_allclose(scaled[8:14], base[8:14], atol=1e-12)
    # scaling by a power of ten leaves even the coefficient statistics unchanged
    tenx = encode(cut([20.0, -10.0, 30.0], 20.0), state)
    np.testing.assert_allclose(tenx, base, atol=1e-12)


def test_consistent_permutation_invariance():
    state = make_state([1.0, 2.0, 3.0], [0.5, 0.25, 0.75])
    f = encode(cut([1.0, -2.0, 4.0], 2.0), state)
    perm = [2, 0, 1]
    state_p = make_state(np.array([1.0, 2.0, 3.0])[perm], np.array([0.5, 0.25, 0.75])[perm])
    f_p = encode(cut(np.array([1.0, -2.0, 4.0])[perm], 2.0), state_p)
    np.testing.assert_allclose(f_p, f, atol=1e-12)


def test_pure_function():
    state = make_state([1.0, 2.0], [0.3, 0.6])
    c = cut([1.0, 1.0], 1.0)
    np.testing.assert_array_equal(encode(c, state), encode(c, state))


def test_zero_norm_cut_raises():
    state = make_state([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ZeroNormCut):
        encode(cut([0.0, 0.0], 1.0), state)
