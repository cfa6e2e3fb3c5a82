"""The parametric cut scorer: a small sigmoid MLP regressor trained with SGD.

Targets are normalized LP improvements harvested from look-ahead trajectories:
for every cut available at iteration k the label is

    (value(H u P_k u {cut}) - value(H u P_k)) / max(|value(H u P_k)|, 1e-6).

The absolute value in the denominator keeps "improvement is positive" intact
for negated-maximization families, where the raw LP value is negative.  Inputs
are z-scored with train-set statistics stored inside the model file, so a saved
model is self-contained.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from .features import FEATURE_NAMES, NUM_FEATURES, encode
from .gomory import CutPlaneState, CutPool, apply_cuts
from .lp import OPTIMAL, LinearProgram, solve_lp

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Trajectory

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
TARGET_DENOM_FLOOR = 1e-6
LAYER_DIMS = (NUM_FEATURES, 32, 32, 1)
REPLAY_TOL = 1e-5


class SchemaMismatch(ValueError):
    """Model file is truncated, from another format version, or dimensionally wrong."""


class Diverged(RuntimeError):
    """Training loss became non-finite: learning-rate or data pathology."""


class ReplayMismatch(RuntimeError):
    """Re-solved LP value disagrees with the trajectory record beyond ``REPLAY_TOL``."""


@dataclass
class MlpParams:
    """Weights/biases of the scorer plus the feature-normalization statistics."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    meta: dict = field(default_factory=dict)

    def copy(self) -> "MlpParams":
        return MlpParams(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.feat_mean.copy(),
            self.feat_std.copy(),
            dict(self.meta),
        )


@dataclass
class TrainSample:
    features: np.ndarray
    target: float
    family: str = ""
    instance_id: str = ""
    iteration: int = 0


@dataclass
class Hyperparams:
    lr: float = 5e-3
    epochs: int = 50
    batch_size: int = 10_000
    patience: int = 5
    seed: int = 0


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    stopped_early: bool


def init_params(
    layer_dims: Sequence[int] = LAYER_DIMS,
    seed: int = 0,
    feat_mean: Optional[np.ndarray] = None,
    feat_std: Optional[np.ndarray] = None,
) -> MlpParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    dims = list(layer_dims)
    if dims[0] != NUM_FEATURES or dims[-1] != 1:
        raise ValueError(f"layer dims must run {NUM_FEATURES} -> ... -> 1, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        span = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-span, span, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-span, span, size=fan_out))
    mean = np.zeros(NUM_FEATURES) if feat_mean is None else np.asarray(feat_mean, dtype=float)
    std = np.ones(NUM_FEATURES) if feat_std is None else np.asarray(feat_std, dtype=float)
    return MlpParams(dims, weights, biases, mean, std, {"seed": seed})


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(params: MlpParams, f: np.ndarray) -> float | np.ndarray:
    """Score features (shape (14,) or (N, 14)); deterministic, sigmoid hidden layers."""
    single = np.ndim(f) == 1
    out = _forward_cached(params, np.atleast_2d(np.asarray(f, dtype=float)))[-1][:, 0]
    return float(out[0]) if single else out


def _forward_cached(params: MlpParams, X: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation, the normalized input first and the output last."""
    acts = [(X - params.feat_mean) / params.feat_std]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        acts.append(_sigmoid(z) if i != last else z)
    return acts


def loss_and_grads(params: MlpParams, X: np.ndarray, y: np.ndarray):
    """Mean squared error and its analytic gradients (checked against finite differences)."""
    n = X.shape[0]
    acts = _forward_cached(params, X)
    pred = acts[-1][:, 0]
    err = pred - y
    loss = float(np.mean(err ** 2))
    delta = (2.0 / n) * err[:, None]
    gw = [None] * len(params.weights)
    gb = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        a_in = acts[i]
        gw[i] = a_in.T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * acts[i] * (1.0 - acts[i])
    return loss, gw, gb


def mse(params: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    pred = forward(params, X)
    return float(np.mean((pred - y) ** 2))


def samples_to_arrays(samples: Sequence[TrainSample]) -> tuple[np.ndarray, np.ndarray]:
    X = np.stack([s.features for s in samples]) if samples else np.zeros((0, NUM_FEATURES))
    y = np.array([s.target for s in samples])
    return X, y


def train_sgd(
    dataset: Sequence[TrainSample],
    val: Sequence[TrainSample],
    hp: Hyperparams = Hyperparams(),
    layer_dims: Sequence[int] = LAYER_DIMS,
) -> tuple[MlpParams, TrainReport]:
    """Minibatch SGD on quadratic loss with validation-based early stopping.

    Deterministic given ``hp.seed``: fixed init and fixed shuffle order.  The
    returned parameters are the best-validation snapshot, not the last epoch.

    Targets are z-scored internally (normalized LP improvements sit orders of
    magnitude below the init output scale, which MSE + SGD cannot bridge in the
    epoch budget) and the affine transform is folded back into the linear
    output layer on return, so the model predicts raw targets and the reported
    losses are in raw target units.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    X, y_raw = samples_to_arrays(dataset)
    Xv, yv_raw = samples_to_arrays(val) if val else (X, y_raw)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-9] = 1.0
    y_mean = float(y_raw.mean())
    y_std = float(y_raw.std())
    if y_std < 1e-12:
        y_std = 1.0
    y = (y_raw - y_mean) / y_std
    yv = (yv_raw - y_mean) / y_std
    params = init_params(layer_dims, seed=hp.seed, feat_mean=mean, feat_std=std)
    rng = np.random.default_rng(hp.seed + 1)

    train_losses, val_losses = [], []
    best = params.copy()
    best_val = math.inf
    best_epoch = -1
    bad_epochs = 0
    stopped_early = False
    n = X.shape[0]
    scale = y_std * y_std  # z-space MSE -> raw-unit MSE
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            loss, gw, gb = loss_and_grads(params, X[idx], y[idx])
            if not math.isfinite(loss):
                raise Diverged(f"training loss became non-finite at epoch {epoch}")
            for w, g in zip(params.weights, gw):
                w -= hp.lr * g
            for b, g in zip(params.biases, gb):
                b -= hp.lr * g
        tr = mse(params, X, y) * scale
        vl = mse(params, Xv, yv) * scale
        if not (math.isfinite(tr) and math.isfinite(vl)):
            raise Diverged(f"loss became non-finite at epoch {epoch}")
        train_losses.append(tr)
        val_losses.append(vl)
        if vl < best_val - 1e-18:
            best_val = vl
            best = params.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hp.patience:
                stopped_early = True
                break
    best.weights[-1] *= y_std
    best.biases[-1] = best.biases[-1] * y_std + y_mean
    best.meta.update({
        "seed": hp.seed, "lr": hp.lr, "epochs_run": len(train_losses),
        "batch_size": hp.batch_size, "patience": hp.patience,
        "best_epoch": best_epoch, "best_val_loss": best_val,
        "target_standardization": [y_mean, y_std],
    })
    return best, TrainReport(train_losses, val_losses, best_epoch, stopped_early)


# ---------------------------------------------------------------------------
# dataset construction from recorded trajectories
# ---------------------------------------------------------------------------


def build_dataset(
    trajectories: Iterable["Trajectory"],
    instances: Mapping[str, LinearProgram],
    family: str = "",
) -> list[TrainSample]:
    """One sample per (iteration, candidate cut) across look-ahead trajectories.

    Each iteration k is replayed by re-solving (H u P_k) in the trajectory's
    own arithmetic (``traj.arithmetic``); a disagreement with
    the recorded value beyond ``REPLAY_TOL`` raises :class:`ReplayMismatch`.
    That replay is the only solve: a pool cut's label is its recorded
    look-ahead score, none when that is non-finite, and a record without one
    score per pool cut raises ValueError.  Cuts already active in P_k change
    nothing when re-added, so their label is exactly zero.
    """
    out: list[TrainSample] = []
    for traj in trajectories:
        lp = instances[traj.instance_id]
        for rec in traj.records:
            pool_ids, raw = rec.pool_ids, rec.pool_scores
            if not pool_ids:
                continue
            if raw is None or len(raw) != len(pool_ids):
                raise ValueError(f"{traj.instance_id} iter {rec.k}: no score per pool cut")
            active = [traj.cuts[i] for i in rec.active_ids]
            pool_cuts = [traj.cuts[i] for i in pool_ids]
            sol = solve_lp(apply_cuts(lp, active), mode=traj.arithmetic)
            if sol.status != OPTIMAL:
                raise ReplayMismatch(
                    f"{traj.instance_id} iter {rec.k}: replayed LP is {sol.status}")
            vk = float(sol.value)
            if abs(vk - rec.lp_value) > REPLAY_TOL:
                raise ReplayMismatch(
                    f"{traj.instance_id} iter {rec.k}: replayed value {vk} vs recorded {rec.lp_value}")
            denom = max(abs(vk), TARGET_DENOM_FLOOR)
            # The replayed state is only encoded; it carries no ``solved`` LP to score.
            state = CutPlaneState(lp, active, CutPool(pool_cuts), rec.k,
                                  np.asarray(rec.x_star, dtype=float), rec.lp_value)
            for cut, with_cut in zip(pool_cuts, raw):
                if math.isfinite(with_cut):
                    out.append(TrainSample(encode(cut, state), (with_cut - vk) / denom, family,
                                           traj.instance_id, rec.k))
            for cut in active:
                out.append(TrainSample(encode(cut, state), 0.0, family,
                                       traj.instance_id, rec.k))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_dataset(samples: Sequence[TrainSample], path) -> None:
    """Columnar CSV: the 14 feature columns in their fixed order, then target
    and provenance columns; float text is repr so values round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(FEATURE_NAMES + ["target", "family", "instance_id", "iteration"]) + "\n")
        for s in samples:
            feats = ",".join(repr(float(v)) for v in s.features)
            fh.write(f"{feats},{repr(float(s.target))},{s.family},{s.instance_id},{s.iteration}\n")


def load_dataset(path) -> list[TrainSample]:
    """The samples of a dataset CSV; a bad header or row raises
    :class:`SchemaMismatch` naming ``path`` (and the row's line number)."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:NUM_FEATURES] != FEATURE_NAMES:
            raise SchemaMismatch(f"dataset {path} does not start with the 14 feature columns")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            try:
                out.append(TrainSample(
                    features=np.array([float(v) for v in parts[:NUM_FEATURES]]),
                    target=float(parts[NUM_FEATURES]),
                    family=parts[NUM_FEATURES + 1],
                    instance_id=parts[NUM_FEATURES + 2],
                    iteration=int(parts[NUM_FEATURES + 3]),
                ))
            except (IndexError, ValueError) as exc:
                raise SchemaMismatch(f"dataset {path} line {lineno}: {exc}") from exc
    return out


def save_model(params: MlpParams, path) -> None:
    """Self-describing JSON; floats round-trip exactly via repr."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": params.layer_dims,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "feat_mean": params.feat_mean.tolist(),
        "feat_std": params.feat_std.tolist(),
        "meta": params.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path) -> MlpParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model file {path} does not hold a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise SchemaMismatch(f"model file {path}: format version "
                             f"{doc.get('format_version')!r} != {MODEL_FORMAT_VERSION}")
    try:
        dims = [int(d) for d in doc["layer_dims"]]
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        mean = np.array(doc["feat_mean"], dtype=float)
        std = np.array(doc["feat_std"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed model file {path}: {exc}") from exc
    if not dims or dims[0] != NUM_FEATURES or dims[-1] != 1 or len(weights) != len(dims) - 1:
        raise SchemaMismatch(f"inconsistent layer dims {dims}")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
            raise SchemaMismatch(f"layer {i} has shape {w.shape}, expected {(dims[i], dims[i+1])}")
    if mean.shape != (NUM_FEATURES,) or std.shape != (NUM_FEATURES,):
        raise SchemaMismatch("normalization statistics must have length 14")
    return MlpParams(dims, weights, biases, mean, std, doc.get("meta", {}))
