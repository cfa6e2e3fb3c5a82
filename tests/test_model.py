"""MLP scorer: forward, analytic gradients, SGD training, persistence."""

import json
import re

import numpy as np
import pytest

from cutplane.features import NUM_FEATURES
from cutplane.model import (
    Hyperparams,
    MlpParams,
    SchemaMismatch,
    TrainSample,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    mse,
    save_model,
    train_sgd,
)


def test_zero_params_give_zero_output():
    p = init_params(seed=0)
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    rng = np.random.default_rng(1)
    # identity output layer on all-zero pre-activations
    assert forward(p, rng.normal(size=NUM_FEATURES)) == 0.0


def test_single_hidden_unit_hand_computation():
    p = init_params(layer_dims=[NUM_FEATURES, 1, 1], seed=0)
    p.weights[0][:] = 0.0
    p.weights[0][0, 0] = 2.0
    p.biases[0][:] = -1.0
    p.weights[1][:] = 3.0
    p.biases[1][:] = 0.5
    x = np.zeros(NUM_FEATURES)
    x[0] = 1.0
    # hidden = sigmoid(2*1 - 1) = sigmoid(1); out = 3*hidden + 0.5
    expected = 3.0 / (1.0 + np.exp(-1.0)) + 0.5
    assert forward(p, x) == pytest.approx(expected, rel=1e-12)


def test_forward_continuity():
    p = init_params(seed=3)
    x = np.random.default_rng(4).normal(size=NUM_FEATURES)
    assert forward(p, x) == pytest.approx(forward(p, x + 1e-13), abs=1e-9)


def test_gradient_check_against_finite_differences():
    """Analytic gradients vs central differences, relative error < 1e-4."""
    rng = np.random.default_rng(12)
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        p = init_params(layer_dims=[NUM_FEATURES, 5, 1], seed=trial)
        X = rng.normal(size=(6, NUM_FEATURES))
        y = rng.normal(size=6)
        _, gw, gb = loss_and_grads(p, X, y)
        for li in range(len(p.weights)):
            w = p.weights[li]
            i, j = rng.integers(w.shape[0]), rng.integers(w.shape[1])
            orig = w[i, j]
            w[i, j] = orig + h
            up = mse(p, X, y)
            w[i, j] = orig - h
            dn = mse(p, X, y)
            w[i, j] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(fd - gw[li][i, j]) / max(1e-8, abs(fd))
            worst = max(worst, rel)
            i = rng.integers(p.biases[li].shape[0])
            orig = p.biases[li][i]
            p.biases[li][i] = orig + h
            up = mse(p, X, y)
            p.biases[li][i] = orig - h
            dn = mse(p, X, y)
            p.biases[li][i] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(fd - gb[li][i]) / max(1e-8, abs(fd))
            worst = max(worst, rel)
    assert worst < 1e-4


def samples_from(X, y):
    return [TrainSample(features=xi, target=float(yi)) for xi, yi in zip(X, y)]


def test_constant_target_is_learned_exactly():
    """Constant targets are exactly representable: the output bias absorbs them."""
    X = np.zeros((100, NUM_FEATURES))
    y = np.full(100, 0.37)
    hp = Hyperparams(lr=5e-3, epochs=300, batch_size=100, patience=300, seed=0)
    params, report = train_sgd(samples_from(X, y), [], hp)
    assert report.train_losses[-1] < 1e-6


def test_planted_linear_targets():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2000, NUM_FEATURES))
    w_true = rng.normal(size=NUM_FEATURES) * 0.3
    y = X @ w_true
    val_X = rng.normal(size=(400, NUM_FEATURES))
    val_y = val_X @ w_true
    hp = Hyperparams(lr=5e-2, epochs=150, batch_size=100, patience=150, seed=1)
    params, report = train_sgd(samples_from(X, y), samples_from(val_X, val_y), hp)
    assert report.val_losses[report.best_epoch] < report.val_losses[0] / 10


def test_training_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, NUM_FEATURES))
    y = X[:, 0] * 0.5
    hp = Hyperparams(lr=1e-2, epochs=5, batch_size=64, patience=5, seed=9)
    p1, r1 = train_sgd(samples_from(X, y), [], hp)
    p2, r2 = train_sgd(samples_from(X, y), [], hp)
    assert r1.train_losses == r2.train_losses
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)


def test_save_load_round_trip(tmp_path):
    p = init_params(seed=5)
    path = tmp_path / "model.json"
    save_model(p, path)
    q = load_model(path)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(1000, NUM_FEATURES))
    np.testing.assert_array_equal(forward(p, X), forward(q, X))


def test_truncated_file_raises_schema_mismatch(tmp_path):
    p = init_params(seed=5)
    path = tmp_path / "model.json"
    save_model(p, path)
    data = path.read_text()
    path.write_text(data[: len(data) // 2])
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_non_object_file_raises_schema_mismatch_naming_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(SchemaMismatch, match=re.escape(str(path))):
        load_model(path)


def test_empty_layer_dims_raise_schema_mismatch(tmp_path):
    doc = {"format_version": 1, "layer_dims": [], "weights": [], "biases": [],
           "feat_mean": [], "feat_std": []}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_wrong_version_raises(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(SchemaMismatch):
        load_model(path)
