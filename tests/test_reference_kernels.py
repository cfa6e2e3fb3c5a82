"""The array kernels of the simplex and the cutpool against their loop references.

``reference_standard_form``, ``reference_pivot``/``reference_run_pivots`` and
``reference_cutpool`` are the row-by-row and ``np.outer`` versions the
vectorized code replaced.  The arithmetic is unchanged, so the results must be
equal to the last bit, not within a tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from cutplane import lp as lp_mod
from cutplane.engine import RunConfig, run_policy
from cutplane.gomory import GOMORY, Cut, CutPool, apply_cuts, generate_cutpool
from cutplane.instances import FAMILIES, InstanceSpec, generate
from cutplane.lp import (
    EQ,
    FEASIBILITY_TOL,
    GE,
    PIVOT_TOL,
    OPTIMAL,
    UNBOUNDED,
    CycleLimitExceeded,
    StandardForm,
    solve_simplex,
    to_standard_form,
)

PRESETS = ("tiny", "small", "train")
SEEDS = (1, 2, 3)
ITERS = 5


def reference_standard_form(lp):
    n, m = lp.num_vars, lp.num_rows
    n_slacks = sum(s != EQ for s in lp.senses)
    aug = np.zeros((m, n + n_slacks))
    rhs = np.zeros(m)
    row_of_slack = {}
    next_slack = n
    for i in range(m):
        row, r, sense = lp.A[i], lp.b[i], lp.senses[i]
        if sense == GE:
            row, r = -row, -r
        aug[i, :n] = row
        rhs[i] = r
        if sense != EQ:
            aug[i, next_slack] = 1.0
            row_of_slack[next_slack] = i
            next_slack += 1
    return StandardForm(aug=aug, rhs=rhs, row_of_slack=row_of_slack, num_vars=n)


def reference_pivot(T, row, col, buf=None):  # buf: the solver passes one; unused here
    piv = T[row, col]
    pr = T[row] / piv
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, pr)
    T[row] = pr
    T[:, col] = 0.0
    T[row, col] = 1.0


def reference_run_pivots(T, basis, m, bland_after, cycle_cap):
    ptol = PIVOT_TOL
    nonimp = 0
    bland = False
    pivots = 0
    while True:
        r = T[m, :-1]
        if bland:
            neg = np.nonzero(r < -ptol)[0]
            if neg.size == 0:
                return OPTIMAL
            j = int(neg[0])
        else:
            j = int(np.argmin(r))
            if r[j] >= -ptol:
                return OPTIMAL
        col = T[:m, j]
        pos = np.nonzero(col > ptol)[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = np.maximum(T[pos, -1], 0.0) / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-9 * (1.0 + abs(best))]
        i = int(ties[np.argmin(basis[ties])])
        before = T[m, -1]
        reference_pivot(T, i, j)
        basis[i] = j
        pivots += 1
        if pivots > cycle_cap:
            raise CycleLimitExceeded(f"exceeded {cycle_cap} pivots")
        if T[m, -1] > before + 1e-12:
            nonimp = 0
        else:
            nonimp += 1
            if nonimp > bland_after:
                bland = True


def reference_cutpool(sol, sf, tol, ids, born_iter):
    n = sf.num_vars
    tab = sol.tableau
    L, v = tab.matrix, tab.rhs
    frac_dist = np.abs(v - np.round(v))
    rows = np.nonzero(frac_dist > tol)[0]
    cuts = []
    slack_cols = sorted(sf.row_of_slack)
    src_rows = np.array([sf.row_of_slack[j] for j in slack_cols], dtype=int)
    A_src = sf.aug[src_rows][:, :n] if slack_cols else np.zeros((0, n))
    b_src = sf.rhs[src_rows] if slack_cols else np.zeros(0)
    x = np.asarray(sol.x, dtype=float)
    for i in rows:
        g = np.floor(L[i]) - L[i]
        g0 = math.floor(v[i]) - v[i]
        alpha = g[:n].copy()
        beta = g0
        if slack_cols:
            r = g[slack_cols]
            alpha -= r @ A_src
            beta -= float(r @ b_src)
        alpha[np.abs(alpha) < PIVOT_TOL] = 0.0
        rounded = np.round(alpha)
        beta_r = round(beta)
        if np.max(np.abs(alpha - rounded), initial=0.0) <= 1e-6 and abs(beta - beta_r) <= 1e-6:
            # Divide the all-integer cut by the common factor of its coefficients.
            alpha, beta = rounded, float(beta_r)
            g = np.gcd.reduce(np.abs(alpha.astype(np.int64))) if alpha.size else 0
            g = math.gcd(int(g), abs(int(round(beta))))
            if g > 1:
                alpha, beta = alpha / g, beta / g
        if not np.any(alpha):
            continue
        if float(alpha @ x) - beta <= FEASIBILITY_TOL:
            continue
        cuts.append(Cut(alpha=alpha, beta=float(beta), id=next(ids), born_iter=born_iter,
                        kind=GOMORY, basic_var=int(tab.basis[i]),
                        row_norm=float(np.linalg.norm(L[i])), frac_dist=float(frac_dist[i])))
    return CutPool(cuts)


def cut_bytes(c):
    return (c.id, c.born_iter, c.kind, c.alpha.tobytes(), repr(c.beta), c.basic_var,
            repr(c.row_norm), repr(c.frac_dist))


def tableau_bytes(sol):
    tab = sol.tableau
    return (sol.status, tab.basis.tobytes(), tab.matrix.tobytes(), tab.rhs.tobytes(),
            tab.reduced_costs.tobytes())


@pytest.mark.parametrize("family", FAMILIES)
def test_kernels_match_loop_references(family, monkeypatch):
    """Five random-policy iterations per instance, re-solved and re-cut both ways."""
    for preset, seed in itertools.product(PRESETS, SEEDS):
        base = generate(InstanceSpec(family, preset, seed))
        traj = run_policy(base, "random", RunConfig(max_iters=ITERS, seed=seed))
        for rec in traj.records:
            lp_k = apply_cuts(base, [traj.cuts[i] for i in rec.active_ids])
            sf = to_standard_form(lp_k)
            ref_sf = reference_standard_form(lp_k)
            assert sf.aug.tobytes() == ref_sf.aug.tobytes()
            assert sf.rhs.tobytes() == ref_sf.rhs.tobytes()
            assert list(sf.row_of_slack.items()) == list(ref_sf.row_of_slack.items())

            sol = solve_simplex(sf, lp_k.objective)
            with monkeypatch.context() as mp:
                mp.setattr(lp_mod, "_pivot", reference_pivot)
                mp.setattr(lp_mod, "_run_pivots", reference_run_pivots)
                ref_sol = solve_simplex(sf, lp_k.objective)
            assert tableau_bytes(sol) == tableau_bytes(ref_sol), (preset, seed, rec.k)

            start = min(rec.pool_ids, default=0)
            pool = generate_cutpool(sol, sf, lp_k, id_counter=itertools.count(start),
                                    born_iter=rec.k)
            ref = reference_cutpool(sol, sf, 1e-6, itertools.count(start), rec.k)
            assert [cut_bytes(c) for c in pool] == [cut_bytes(c) for c in ref], \
                (preset, seed, rec.k)
            assert pool.ids() == rec.pool_ids
