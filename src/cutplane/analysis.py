"""Cutpool quality distributions: the M1 and M2 matrices of recorded look-ahead scores."""

from __future__ import annotations

import numpy as np


def pool_metrics(record) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-cut M1 (improvement / |previous value|) and M2 (improvement / best
    improvement in the pool) for one recorded iteration; None without scores."""
    if not record.pool_scores:
        return None
    impr = np.maximum(np.asarray(record.pool_scores, dtype=float) - record.lp_value, 0.0)
    impr[~np.isfinite(impr)] = 0.0
    m1 = impr / max(abs(record.lp_value), 1e-6)
    top = impr.max() if impr.size else 0.0
    m2 = np.clip(impr / top, 0.0, 1.0) if top > 1e-9 else np.zeros_like(impr)
    return m1, m2


def aggregate_distribution(per_iter: dict, max_iters: int) -> dict[str, np.ndarray]:
    """Row k of D aggregates the sorted-descending metric over every
    iteration-k cutpool, each position divided by its contributor count.
    ``per_iter`` maps k -> list of (m1, m2) arrays."""
    width = max((m1.size for pools in per_iter.values() for m1, _ in pools), default=0)
    out = {}
    for mi, name in ((0, "M1"), (1, "M2")):
        D = np.zeros((max_iters, width))
        for k in range(1, max_iters + 1):
            sums = np.zeros(width)
            counts = np.zeros(width)
            for metrics in per_iter.get(k, []):
                vals = np.sort(metrics[mi])[::-1]
                sums[: vals.size] += vals
                counts[: vals.size] += 1
            D[k - 1] = sums / np.maximum(counts, 1)
        out[name] = D
    return out


def distribution_matrices(trajectories, max_iters: int):
    per_iter: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for traj in trajectories:
        for rec in traj.records:
            metrics = pool_metrics(rec)
            if metrics is not None and rec.k <= max_iters:
                per_iter.setdefault(rec.k, []).append(metrics)
    return aggregate_distribution(per_iter, max_iters)
