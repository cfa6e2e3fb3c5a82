"""Seeded random generators for the five ILP families, plus instance file I/O.

All families emit integer coefficient data, bounded feasible regions, and a
minimization objective (maximization families are negated).  Constraint rows
are inequalities only: balance equations in production planning are emitted as
<=/>= pairs so that every row carries a slack, which keeps eliminated Gomory
cuts integral round after round; ``LinearProgram.validate`` enforces the rule,
and ``load_instance`` validates each LP it loads.  Each generator's docstring
states its coefficient ranges and ``PRESETS`` its sizes, keyed by its keyword
arguments: presets `train` and `large` match the benchmark dimensions, `small`
is the desk-scale preset, and `tiny` stays under 10 variables so exhaustive
integer enumeration stays cheap.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp import GE, LE, LinearProgram

INSTANCE_FORMAT_VERSION = 1

PACKING = "packing"
BIN_PACKING = "bin_packing"
MAX_CUT = "max_cut"
PRODUCTION_PLANNING = "production_planning"
SET_COVER = "set_cover"
FAMILIES = (PACKING, BIN_PACKING, MAX_CUT, PRODUCTION_PLANNING, SET_COVER)

PRESETS: dict[str, dict[str, dict]] = {
    PACKING: {
        "tiny": {"n_vars": 5, "n_rows": 5, "b_lo": 10, "b_hi": 15},
        "small": {"n_vars": 20, "n_rows": 20},
        "train": {"n_vars": 50, "n_rows": 50},
        "large": {"n_vars": 100, "n_rows": 100},
    },
    BIN_PACKING: {
        "tiny": {"n_vars": 5, "n_rows": 5},
        "small": {"n_vars": 20, "n_rows": 20},
        "train": {"n_vars": 50, "n_rows": 50},
        "large": {"n_vars": 100, "n_rows": 100},
    },
    MAX_CUT: {
        "tiny": {"n_nodes": 4, "n_edges": 5},
        "small": {"n_nodes": 7, "n_edges": 14},
        "train": {"n_nodes": 9, "n_edges": 25},
        "large": {"n_nodes": 14, "n_edges": 40},
    },
    PRODUCTION_PLANNING: {
        "tiny": {"periods": 2},
        "small": {"periods": 5},
        "train": {"periods": 10},
        "large": {"periods": 15},
    },
    SET_COVER: {
        "tiny": {"n_elements": 6, "n_subsets": 6, "p": 0.2},
        "small": {"n_elements": 20, "n_subsets": 20, "p": 0.2},
        "train": {"n_elements": 35, "n_subsets": 35, "p": 0.2},
        "large": {"n_elements": 50, "n_subsets": 50, "p": 0.2},
    },
}


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    preset: str = "small"
    seed: int = 0

    def params(self) -> dict:
        if self.family not in PRESETS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.preset not in PRESETS[self.family]:
            raise ValueError(f"unknown preset {self.preset!r} for {self.family}")
        return dict(PRESETS[self.family][self.preset])

    @property
    def instance_id(self) -> str:
        return f"{self.family}-{self.preset}-{self.seed:08d}"


def gen_packing(n_vars: int, n_rows: int, seed: int,
                b_lo: Optional[int] = None, b_hi: Optional[int] = None) -> LinearProgram:
    """max c@x, Ax <= b, x >= 0 integer; emitted negated as a minimization.

    A_ij ~ U{0..5} with empty columns repaired (one positive entry each, so the
    region is bounded), b_i ~ U{9n..10n}, c_j ~ U{1..10}.
    """
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 6, size=(n_rows, n_vars)).astype(float)
    for j in range(n_vars):
        if not A[:, j].any():
            A[int(rng.integers(n_rows)), j] = float(rng.integers(1, 6))
    lo = 9 * n_vars if b_lo is None else b_lo
    hi = 10 * n_vars if b_hi is None else b_hi
    b = rng.integers(lo, hi + 1, size=n_rows).astype(float)
    c = rng.integers(1, 11, size=n_vars).astype(float)
    return LinearProgram(objective=-c, A=A, b=b, senses=[LE] * n_rows)


def gen_bin_packing(n_vars: int, n_rows: int, seed: int) -> LinearProgram:
    """Packing with binary upper bounds x_j <= 1 and resource capacities tight
    enough to bind (b_i ~ U{n..2n}; the packing range 9n..10n never binds once
    x <= 1)."""
    return gen_packing(n_vars, n_rows, seed, b_lo=n_vars, b_hi=2 * n_vars).with_rows(
        np.eye(n_vars), np.ones(n_vars))


def gen_max_cut(n_nodes: int, n_edges: int, seed: int) -> LinearProgram:
    """Edge-variable max-cut ILP: max sum w_e y_e with y_e <= x_u + x_v and
    y_e <= 2 - x_u - x_v over binary node variables; negated to a minimization."""
    pairs = list(itertools.combinations(range(n_nodes), 2))
    if n_edges > len(pairs):
        raise ValueError(f"graph on {n_nodes} nodes has at most {len(pairs)} edges")
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(pairs), size=n_edges, replace=False).tolist())
    edges = [pairs[i] for i in chosen]
    w = rng.integers(1, 11, size=n_edges).astype(float)
    n = n_nodes + n_edges  # x then y
    rows, rhs = [], []
    for e, (u, v) in enumerate(edges):
        r1 = np.zeros(n)
        r1[n_nodes + e] = 1.0
        r1[u] = -1.0
        r1[v] = -1.0
        rows.append(r1)
        rhs.append(0.0)
        r2 = np.zeros(n)
        r2[n_nodes + e] = 1.0
        r2[u] = 1.0
        r2[v] = 1.0
        rows.append(r2)
        rhs.append(2.0)
    c = np.concatenate([np.zeros(n_nodes), -w])
    edge_lp = LinearProgram(c, np.array(rows), np.array(rhs), [LE] * len(rows))
    return edge_lp.with_rows(np.eye(n), np.ones(n))  # x <= 1 then y <= 1


def gen_production_planning(periods: int, seed: int) -> LinearProgram:
    """Capacitated lot sizing with binary setups.

    Variables: production x_t, inventory s_t (t = 1..T-1; s_0 = s_T = 0) and
    setup y_t.  Demands d_t ~ U{1..9}, production/storage costs ~ U{1..5},
    setup costs ~ U{5..20}.  Balance rows s_{t-1} + x_t - s_t = d_t appear as
    <=/>= pairs, capacity rows link x_t <= (remaining demand) * y_t.
    """
    T = periods
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 10, size=T).astype(float)
    prod_cost = rng.integers(1, 6, size=T).astype(float)
    hold_cost = rng.integers(1, 6, size=max(T - 1, 0)).astype(float)
    setup_cost = rng.integers(5, 21, size=T).astype(float)
    cap = np.array([d[t:].sum() for t in range(T)])

    n = T + (T - 1) + T  # x | s | y
    x0, s0, y0 = 0, T, 2 * T - 1
    rows, rhs, senses = [], [], []
    for t in range(T):
        bal = np.zeros(n)
        bal[x0 + t] = 1.0
        if t > 0:
            bal[s0 + t - 1] = 1.0
        if t < T - 1:
            bal[s0 + t] = -1.0
        for sense in (LE, GE):
            rows.append(bal.copy())
            rhs.append(d[t])
            senses.append(sense)
    for t in range(T):
        capr = np.zeros(n)
        capr[x0 + t] = 1.0
        capr[y0 + t] = -cap[t]
        rows.append(capr)
        rhs.append(0.0)
        senses.append(LE)
    c = np.concatenate([prod_cost, hold_cost, setup_cost])
    lp = LinearProgram(objective=c, A=np.array(rows), b=np.array(rhs), senses=senses)
    return lp.with_rows(np.eye(n)[y0:], np.ones(T))  # y_t <= 1


def gen_set_cover(n_elements: int, n_subsets: int, p: float, seed: int) -> LinearProgram:
    """Probabilistic set cover: membership with probability p, then repair so no
    subset is empty and every element is covered; c = 1; min-cover objective."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    member = rng.random((n_subsets, n_elements)) < p
    for i in range(n_subsets):
        if not member[i].any():
            member[i, int(rng.integers(n_elements))] = True
    for e in range(n_elements):
        if not member[:, e].any():
            member[int(rng.integers(n_subsets)), e] = True

    # Coverage; X_i <= 1; X_i >= 0, kept explicit: two bound rows per subset.
    eye = np.eye(n_subsets)
    A = np.vstack([member.T.astype(float), eye, eye])
    b = np.concatenate([np.ones(n_elements), np.ones(n_subsets), np.zeros(n_subsets)])
    senses = [GE] * n_elements + [LE] * n_subsets + [GE] * n_subsets
    return LinearProgram(objective=np.ones(n_subsets), A=A, b=b, senses=senses)


_GENERATORS = {
    PACKING: gen_packing,
    BIN_PACKING: gen_bin_packing,
    MAX_CUT: gen_max_cut,
    PRODUCTION_PLANNING: gen_production_planning,
    SET_COVER: gen_set_cover,
}

# Families whose natural objective is maximization (stored negated).
NEGATED_FAMILIES = {PACKING, BIN_PACKING, MAX_CUT}


def generate(spec: InstanceSpec) -> LinearProgram:
    """Deterministic: identical spec + seed produce identical instances."""
    lp = _GENERATORS[spec.family](**spec.params(), seed=spec.seed)
    lp.name = spec.instance_id
    lp.validate()
    return lp


def save_instance(lp: LinearProgram, spec: InstanceSpec, path) -> None:
    doc = {
        "format_version": INSTANCE_FORMAT_VERSION,
        "family": spec.family,
        "preset": spec.preset,
        "seed": spec.seed,
        "instance_id": spec.instance_id,
        "num_vars": lp.num_vars,
        "objective": [int(v) for v in lp.objective],
        "rows": [
            {"coeffs": [int(v) for v in row], "rhs": int(r), "sense": s}
            for row, r, s in zip(lp.A, lp.b, lp.senses)
        ],
        "maximize_negated": spec.family in NEGATED_FAMILIES,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_instance(path) -> tuple[LinearProgram, dict]:
    """The LP and the JSON document of an instance file; a malformed file,
    invalid JSON included, raises a ValueError naming ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"unreadable instance file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"instance file {path} does not hold a JSON object")
    if doc.get("format_version") != INSTANCE_FORMAT_VERSION:
        raise ValueError(f"instance file {path}: unsupported format "
                         f"{doc.get('format_version')!r}")
    try:
        rows = doc["rows"]
        n = doc["num_vars"]
        lp = LinearProgram(
            objective=np.array(doc["objective"], dtype=float),
            A=np.array([r["coeffs"] for r in rows], dtype=float).reshape(len(rows), n),
            b=np.array([r["rhs"] for r in rows], dtype=float),
            senses=[r["sense"] for r in rows],
            name=doc["instance_id"],
        )
        lp.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    return lp, doc
