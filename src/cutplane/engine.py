"""One cutting-plane loop with two steps: add-only, and add-all-then-remove.

Every iteration solves (H u P_k) and reads the Gomory pool C_k off its
tableau; removal mode then solves (H u P_k u C_k) outright.  The loop stops
on an integral optimum (or an empty pool); otherwise only the step differs.

Add-only appends the one cut of C_k the policy picks.

Removal keeps the k+1 best-scoring cuts of P_k u C_k and appends the bound
constraint c @ x >= ceil(c @ x_k*), which is what makes the recorded LP
values nondecreasing even though earlier cuts get dropped.  Old bound cuts
stay in the candidate set like any other cut; the newest one dominates them.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .gomory import Cut, CutPlaneState, apply_cuts, bound_cut, generate_cutpool
from .lp import (
    FLOAT,
    OPTIMAL,
    CycleLimitExceeded,
    LinearProgram,
    is_integral,
    solve_simplex,
    to_standard_form,
)
from . import policies as _policies

logger = logging.getLogger(__name__)

ADD_ONLY = "add_only"
REMOVAL = "removal"

INTEGRAL_FOUND = "integral_found"
ITER_LIMIT = "iter_limit"
NUMERICAL_FAILURE = "numerical_failure"

TRAJECTORY_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    max_iters: int = 30
    arithmetic: str = FLOAT
    seed: int = 0  # seeds the random policies' draws; recorded in the trajectory
    record_scores: bool = False  # alone decides if add-only records pool_scores

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class IterationRecord:
    k: int
    lp_value: float
    pool_size: int
    n_active: int
    active_ids: list[int]
    pool_ids: list[int]
    selected_ids: list[int]
    removed_ids: list[int]
    x_star: list[float]
    pool_scores: Optional[list[float]] = None  # raw LP value with each pool cut added alone


@dataclass
class Trajectory:
    instance_id: str
    policy_id: str
    mode: str
    status: str
    records: list[IterationRecord]
    cuts: dict[int, Cut]
    seed: int = 0
    arithmetic: str = FLOAT

    @property
    def lp_values(self) -> np.ndarray:
        return np.array([r.lp_value for r in self.records])


def _solve(lp: LinearProgram, cfg: RunConfig):
    sf = to_standard_form(lp)
    try:
        sol = solve_simplex(sf, lp.objective, cfg.arithmetic)
    except CycleLimitExceeded as exc:
        logger.warning("%s: simplex pivot cap hit (%s)", lp.name, exc)
        return sf, None
    if sol.status != OPTIMAL:
        logger.warning("%s: LP ended %s inside the cutting-plane loop", lp.name, sol.status)
        return sf, None
    return sf, sol


def run_add_only(lp: LinearProgram, policy: "_policies.Policy", cfg: RunConfig,
                 instance_id: str = "") -> Trajectory:
    """Classical cutting-plane loop: one policy-chosen cut per iteration."""
    return _run(lp, policy, cfg, instance_id, ADD_ONLY)


def run_removal(lp: LinearProgram, policy: "_policies.Policy", cfg: RunConfig,
                instance_id: str = "") -> Trajectory:
    """Cut removal loop: add the whole pool, keep the k+1 best, add the bound cut."""
    return _run(lp, policy, cfg, instance_id, REMOVAL)


def _run(lp: LinearProgram, policy: "_policies.Policy", cfg: RunConfig,
         instance_id: str, mode: str) -> Trajectory:
    """The loop both modes share; ``mode`` picks the step after a fractional optimum."""
    kinds = _policies.REMOVAL_KINDS if mode == REMOVAL else _policies.ADDITION_KINDS
    if policy.kind not in kinds:
        raise ValueError(f"policy {policy.kind!r} does not run in the {mode} loop")
    ids = itertools.count()
    P: list[Cut] = []
    registry: dict[int, Cut] = {}
    records: list[IterationRecord] = []
    status = ITER_LIMIT
    rng = np.random.default_rng(cfg.seed)
    for k in range(1, cfg.max_iters + 1):
        lp_k = apply_cuts(lp, P)
        sf, sol = _solve(lp_k, cfg)
        if sol is None:
            status = NUMERICAL_FAILURE
            break
        pool = generate_cutpool(sol, sf, id_counter=ids, born_iter=k)
        registry.update({c.id: c for c in pool.cuts})
        if mode == REMOVAL and pool.cuts:
            sf, sol = _solve(apply_cuts(lp_k, pool.cuts), cfg)
            if sol is None:
                status = NUMERICAL_FAILURE
                break
        vk = float(sol.value)
        xk = np.asarray(sol.x, dtype=float)
        integral = is_integral(xk)
        if integral or not pool.cuts:
            records.append(_record(k, vk, pool, P, [], [], xk, None))
            status = INTEGRAL_FOUND if integral else NUMERICAL_FAILURE
            break
        state = CutPlaneState(lp, P, pool, k, xk, vk, (sf, sol))
        if mode == ADD_ONLY:
            raw = None
            if cfg.record_scores or policy.kind == _policies.LOOKAHEAD:
                raw = _policies.lookahead_add_scores(pool, state)
            chosen = _policies.select_addition(pool, state, policy, rng, precomputed_scores=raw)
            recorded = raw.tolist() if cfg.record_scores else None
            records.append(_record(k, vk, pool, P, [chosen], [], xk, recorded))
            P = P + [registry[chosen]]
        else:
            cands = state.candidates()
            scores = _policies.score_candidates(cands, state, policy, rng)
            retained = _policies.select_retained(cands, scores, budget=k + 1)
            kept = set(retained)
            bc = bound_cut(lp.objective, vk, next(ids), k)
            registry[bc.id] = bc
            removed = [c.id for c in cands if c.id not in kept]
            # selected_ids keep select_retained's score order; P keeps candidate order.
            records.append(_record(k, vk, pool, P, retained + [bc.id], removed, xk, None))
            P = [c for c in cands if c.id in kept] + [bc]
    return Trajectory(instance_id, policy.kind, mode, status, records, registry,
                      cfg.seed, cfg.arithmetic)


def _record(k, vk, pool, P, selected, removed, xk, pool_scores) -> IterationRecord:
    return IterationRecord(
        k=k,
        lp_value=vk,
        pool_size=len(pool.cuts),
        n_active=len(P),
        active_ids=[c.id for c in P],
        pool_ids=[c.id for c in pool.cuts],
        selected_ids=list(selected),
        removed_ids=list(removed),
        x_star=[float(v) for v in xk],
        pool_scores=pool_scores,
    )


def run_policy(lp: LinearProgram, policy_name: str, cfg: RunConfig,
               instance_id: str = "", model=None) -> Trajectory:
    """Dispatch a policy name (CLI vocabulary) to the right loop."""
    policy = _policies.Policy(policy_name, model=model)
    run = run_removal if policy_name in _policies.REMOVAL_KINDS else run_add_only
    return run(lp, policy, cfg, instance_id)


def compute_igc(traj: Trajectory, z_int: float) -> np.ndarray:
    """Integrality gap closure per iteration: (v_k - v_1) / (z_int - v_1) in [0, 1].

    A zero initial gap defines IGC as 1 everywhere; values are clamped to [0, 1]
    after a 1e-9 tolerance.
    """
    v = traj.lp_values
    if v.size == 0:
        return np.array([])
    denom = float(z_int) - float(v[0])
    if denom <= 1e-9:
        return np.ones(v.size)
    igc = (v - v[0]) / denom
    igc[np.abs(igc) <= 1e-9] = 0.0
    igc[np.abs(igc - 1.0) <= 1e-9] = 1.0
    return np.clip(igc, 0.0, 1.0)


def extend_curve(values: np.ndarray, length: int) -> np.ndarray:
    """Pad a per-iteration curve to a fixed axis by carrying the last value forward."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.zeros(length)
    if values.size >= length:
        return values[:length]
    return np.concatenate([values, np.full(length - values.size, values[-1])])


# ---------------------------------------------------------------------------
# trajectory (de)serialization
# ---------------------------------------------------------------------------
# The file layout is the fields of Trajectory, IterationRecord and Cut, plus
# "format_version": renaming, adding or removing a field changes the format
# and needs a TRAJECTORY_FORMAT_VERSION bump.


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def trajectory_to_dict(traj: Trajectory) -> dict:
    doc = _fields(traj)
    doc["format_version"] = TRAJECTORY_FORMAT_VERSION
    doc["records"] = [_fields(r) for r in traj.records]
    doc["cuts"] = {str(i): {**_fields(c), "alpha": c.alpha.tolist(), "beta": float(c.beta)}
                   for i, c in sorted(traj.cuts.items())}
    return doc


def trajectory_from_dict(doc: dict) -> Trajectory:
    doc = dict(doc)
    version = doc.pop("format_version", None)
    if version != TRAJECTORY_FORMAT_VERSION:
        raise ValueError(f"unsupported trajectory format {version!r}")
    doc["records"] = [IterationRecord(**r) for r in doc["records"]]
    doc["cuts"] = {int(i): Cut(**d) for i, d in doc["cuts"].items()}
    return Trajectory(**doc)


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        json.dump(trajectory_to_dict(traj), fh, sort_keys=True)


def load_trajectory(path) -> Trajectory:
    """A trajectory file read back; any malformed content, invalid JSON
    included, raises a ValueError naming ``path``."""
    try:
        with open(path) as fh:
            return trajectory_from_dict(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed trajectory file {path}: {exc}") from exc
