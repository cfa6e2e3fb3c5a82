"""14-dimensional cut features in the context of the current cutting-plane state.

Column order is a bit-exact contract shared by dataset files and model files:

    0-3   mean, max, min, std of the cut coefficients (alpha with beta appended)
    4-7   mean, max, min, std of the objective vector c
    8     parallelism          alpha @ c / (|alpha| |c|)
    9     efficacy             (alpha @ x* - beta) / |alpha|   (signed; > 0 when x* violates)
    10    support              nnz(alpha) / n
    11    integral support     nnz over integer variables / nnz(alpha)  (1.0 here: all-integer models)
    12    normalized violation max(0, (alpha @ x* - beta) / |beta|), |beta| floored at 1e-9
    13    latest-cutpool flag  1 iff the cut was generated this iteration

The four coefficient statistics are computed after rescaling (alpha, beta) so
max|alpha_i| lands in [1, 10).  The rescaling exists only inside this encoder:
stored cuts stay integral (see gomory), and every other feature is invariant to
positive cut scaling anyway.
"""

from __future__ import annotations

import math

import numpy as np

from .gomory import Cut, CutPlaneState

FEATURE_NAMES = [
    "cut_mean", "cut_max", "cut_min", "cut_std",
    "obj_mean", "obj_max", "obj_min", "obj_std",
    "parallelism", "efficacy", "support", "integral_support",
    "normalized_violation", "latest_pool",
]
NUM_FEATURES = len(FEATURE_NAMES)


class ZeroNormCut(ValueError):
    """Cut coefficient vector is numerically zero; should be excluded upstream."""


def _stat_block(values: np.ndarray) -> tuple[float, float, float, float]:
    return float(values.mean()), float(values.max()), float(values.min()), float(values.std())


def encode(cut: Cut, state: CutPlaneState) -> np.ndarray:
    """Encode one cut against ``state`` (pure function; no NaN/Inf in the output)."""
    alpha = np.asarray(cut.alpha, dtype=float)
    beta = float(cut.beta)
    c = np.asarray(state.base.objective, dtype=float)
    x = np.asarray(state.x_star, dtype=float)

    norm = float(np.linalg.norm(alpha))
    if norm < 1e-12:
        raise ZeroNormCut(f"cut {cut.id} has zero coefficient norm")

    amax = float(np.max(np.abs(alpha)))
    scale = 10.0 ** (-math.floor(math.log10(amax)))
    f0, f1, f2, f3 = _stat_block(np.append(alpha, beta) * scale)
    f4, f5, f6, f7 = _stat_block(c)

    cnorm = float(np.linalg.norm(c))
    parallelism = float(alpha @ c) / (norm * cnorm) if cnorm > 1e-12 else 0.0
    slack = float(alpha @ x) - beta
    efficacy = slack / norm
    nnz = int(np.sum(np.abs(alpha) > 1e-9))
    support = nnz / alpha.shape[0]
    integral_support = 1.0 if nnz else 0.0  # every variable is integer in these models
    normalized_violation = max(0.0, slack / max(abs(beta), 1e-9))
    latest = 1.0 if cut.born_iter == state.iter else 0.0

    out = np.array([
        f0, f1, f2, f3, f4, f5, f6, f7,
        parallelism, efficacy, support, integral_support,
        normalized_violation, latest,
    ])
    return out


def encode_many(cuts, state) -> np.ndarray:
    """(len(cuts), 14) feature matrix in candidate order."""
    if not cuts:
        return np.zeros((0, NUM_FEATURES))
    return np.stack([encode(c, state) for c in cuts])
