"""Cut-selection behaviors: heuristic baselines, look-ahead experts, neural scorers.

Addition policies pick one cut of the newest pool; removal scorers rate every
candidate (old and new cuts alike) so the engine can keep the top k+1.  MV, MNV
and lexicographic are defined on the fractional variable a cut priced out, so
they exist only for pool cuts and are never offered as removal scorers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import encode_many
from .gomory import Cut, CutPlaneState, CutPool, apply_cuts
from .lp import FLOAT, RATIONAL, CycleLimitExceeded, OPTIMAL, solve_lp, solve_warm
from .model import MlpParams, forward

logger = logging.getLogger(__name__)

RANDOM = "random"
MAX_VIOLATION = "mv"
MAX_NORM_VIOLATION = "mnv"
LEXICOGRAPHIC = "lex"
MIN_SIMILAR = "minsim"
LOOKAHEAD = "lookahead"
NEURAL = "neural"
ADDITION_KINDS = (RANDOM, MAX_VIOLATION, MAX_NORM_VIOLATION, LEXICOGRAPHIC,
                  MIN_SIMILAR, LOOKAHEAD, NEURAL)

REMOVE_LOOKAHEAD = "remove-lookahead"
REMOVE_NEURAL = "remove-neural"
REMOVE_RANDOM = "remove-random"
REMOVAL_KINDS = (REMOVE_LOOKAHEAD, REMOVE_NEURAL, REMOVE_RANDOM)

# Look-ahead values within TIE_REL * (1 + |v|) of each other are equal: warm
# and cold solves of one LP differ by about 1e-13, which must not pick a cut.
TIE_REL = 1e-9


class EmptyPool(ValueError):
    """Addition policies need at least one candidate cut."""


@dataclass
class Policy:
    """One cut-selection behavior: an addition kind picks one pool cut, a
    removal kind scores every candidate.  It holds no state: the random kinds
    draw from the generator the loop seeds with ``RunConfig.seed``."""

    kind: str
    model: Optional[MlpParams] = None

    def __post_init__(self):
        if self.kind not in ADDITION_KINDS + REMOVAL_KINDS:
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind in (NEURAL, REMOVE_NEURAL) and self.model is None:
            raise ValueError(f"{self.kind} policy requires a model")


def _solve_value(lp, state, cut: Optional[Cut] = None) -> float:
    """LP value of ``lp`` solved cold, or of ``lp`` plus ``cut``'s row re-optimized
    from ``state.solved``, ``lp``'s optimum; -inf on solver failure (logged).

    Either solve runs in the arithmetic of ``state.solved``'s tableau, the LP
    the loop solved this iteration.
    """
    try:
        if cut is None:
            sol = solve_lp(lp, mode=RATIONAL if state.solved[1].tableau.exact else FLOAT)
        else:
            sol = solve_warm(lp, state.solved[1], cut.alpha, cut.beta)
    except CycleLimitExceeded as exc:
        logger.warning("scoring LP hit the pivot cap: %s", exc)
        return -math.inf
    if sol.status != OPTIMAL:
        logger.warning("scoring LP ended %s", sol.status)
        return -math.inf
    return float(sol.value)


def lookahead_add_scores(pool: CutPool, state: CutPlaneState) -> np.ndarray:
    """Score of a cut = LP value of (H u P_k u {cut}); one LP per cut.

    Each cut's row is re-optimized into ``state.solved``'s tableau, the loop's
    optimum of (H u P_k), in its arithmetic.  The loop records these scores;
    they are the training labels of ``model.build_dataset``.
    """
    base = apply_cuts(state.base, state.active_cuts)
    return np.array([_solve_value(base, state, c) for c in pool.cuts])


def _basic_slack_mask(candidates: Sequence[Cut], state: CutPlaneState) -> np.ndarray:
    """Which candidates have their slack basic in ``state.solved``'s optimum.

    Candidates are the rows after ``state.base``'s, in order.
    """
    sf, sol = state.solved
    first = state.base.num_rows
    if sf.num_rows != first + len(candidates):
        raise ValueError(f"solved LP has {sf.num_rows} rows, expected "
                         f"{first} base rows plus {len(candidates)} candidates")
    slack_of_row = {r: j for j, r in sf.row_of_slack.items()}
    basic = set(sol.tableau.basis.tolist())
    return np.array([slack_of_row.get(first + i) in basic for i in range(len(candidates))],
                    dtype=bool)


def lookahead_remove_scores(candidates: Sequence[Cut], state: CutPlaneState) -> np.ndarray:
    """Leave-one-out value drop: full LP value minus the value without the cut.

    The state must be solved over H u P_k u C_k.  A candidate whose slack is
    basic in that optimum scores exactly 0 without a solve: the optimum stays
    optimal without its row.  The others are solved cold.  Removing a
    constraint can only lower a minimum, so a drop within
    ``TIE_REL * (1 + |full|)`` of zero (float noise) is stored as 0.
    """
    full = float(state.lp_value)
    slack = _basic_slack_mask(candidates, state)
    scores = np.zeros(len(candidates))
    for i in np.flatnonzero(~slack):
        rest = [c for j, c in enumerate(candidates) if j != i]
        val = _solve_value(apply_cuts(state.base, rest), state)
        drop = full - val
        scores[i] = -math.inf if val == -math.inf else (
            drop if drop > TIE_REL * (1.0 + abs(full)) else 0.0)
    return scores


def _neural_scores(cuts: Sequence[Cut], state: CutPlaneState, model: MlpParams) -> np.ndarray:
    feats = encode_many(list(cuts), state)
    return np.atleast_1d(forward(model, feats))


def select_addition(
    pool: CutPool,
    state: CutPlaneState,
    policy: Policy,
    rng: np.random.Generator,
    precomputed_scores: Optional[np.ndarray] = None,
) -> int:
    """Pick one cut id from the pool; ties always break toward the lowest id.

    ``random`` draws from ``rng``; ``lookahead`` ranks ``precomputed_scores``, the
    loop's look-ahead scores, with ties within ``TIE_REL * (1 + |best|)`` of the best.
    """
    cuts = pool.cuts
    if not cuts:
        raise EmptyPool("cannot select from an empty cutpool")
    kind = policy.kind
    if kind == RANDOM:
        return cuts[int(rng.integers(len(cuts)))].id
    if kind == MAX_VIOLATION:
        return _argbest(cuts, [c.frac_dist for c in cuts])
    if kind == MAX_NORM_VIOLATION:
        return _argbest(cuts, [c.frac_dist / c.row_norm if c.row_norm else 0.0 for c in cuts])
    if kind == LEXICOGRAPHIC:
        return _argbest(cuts, [-(c.basic_var if c.basic_var is not None else math.inf)
                               for c in cuts])
    if kind == MIN_SIMILAR:
        c_obj = np.asarray(state.base.objective, dtype=float)
        cn = np.linalg.norm(c_obj)
        sims = []
        for c in cuts:
            an = np.linalg.norm(c.alpha)
            sims.append(float(c.alpha @ c_obj) / (an * cn) if an * cn > 1e-12 else 0.0)
        return _argbest(cuts, [-s for s in sims])
    if kind == LOOKAHEAD:
        return _argbest(cuts, precomputed_scores, TIE_REL)
    if kind == NEURAL:
        return _argbest(cuts, _neural_scores(cuts, state, policy.model))
    raise ValueError(f"{kind!r} is not an addition policy")


def _argbest(cuts: Sequence[Cut], scores, rel_tol: float = 0.0) -> int:
    """Lowest id among the cuts scoring within ``rel_tol * (1 + |best|)`` of the best."""
    best = max(scores)
    floor = best - rel_tol * (1.0 + abs(best)) if math.isfinite(best) else best
    return min(c.id for c, s in zip(cuts, scores) if s >= floor)


def score_candidates(candidates: Sequence[Cut], state: CutPlaneState,
                     policy: Policy, rng: np.random.Generator) -> np.ndarray:
    if policy.kind == REMOVE_LOOKAHEAD:
        return lookahead_remove_scores(candidates, state)
    if policy.kind == REMOVE_NEURAL:
        return _neural_scores(candidates, state, policy.model)
    if policy.kind == REMOVE_RANDOM:
        return rng.random(len(candidates))
    raise ValueError(f"{policy.kind!r} is not a removal policy")


def select_retained(candidates: Sequence[Cut], scores: Sequence[float], budget: int) -> list[int]:
    """Ids of the ``budget`` highest-scoring cuts; ties prefer newer cuts, then lower id.

    When the budget exceeds the candidate count, everything is retained.
    """
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-float(scores[i]), -candidates[i].born_iter, candidates[i].id),
    )
    keep = order[: min(budget, len(candidates))]
    return [candidates[i].id for i in keep]
