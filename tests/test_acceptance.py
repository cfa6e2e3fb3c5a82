"""Acceptance suite: one test per criterion, printed PASS/FAIL in the run summary.

The heavy fixtures (instance banks, trajectory sweeps, trained models) are
session-scoped and shared across criteria; worker pools only parallelize
independent instances, so every artifact is identical however many cores run.
"""

import itertools
import math
from multiprocessing import get_context

import numpy as np
import pytest

from _acceptance_report import record
from brute_force import enumerate_integer_points, integer_box

from cutplane.analysis import aggregate_distribution, pool_metrics
from cutplane.cli import main as cli_main
from cutplane.engine import (
    INTEGRAL_FOUND,
    NUMERICAL_FAILURE,
    RunConfig,
    compute_igc,
    extend_curve,
    run_policy,
)
from cutplane.features import NUM_FEATURES
from cutplane.gomory import BOUND, GOMORY, apply_cuts
from cutplane.instances import FAMILIES, InstanceSpec, generate
from cutplane.lp import LE, OPTIMAL, LinearProgram, solve_lp, to_standard_form
from cutplane.model import (
    Hyperparams,
    build_dataset,
    forward,
    init_params,
    loss_and_grads,
    mse,
    train_sgd,
)
from cutplane.oracle import solve_ilp

WORKERS = 2

SEED_VALIDITY = 11_000
SEED_PRESERVE = 12_000
SEED_ADDONLY = 13_000
SEED_TRAIN = 14_000
SEED_VAL = 15_000
SEED_EVAL = 16_000
SEED_DIST = 17_000


def _pmap(fn, items):
    if len(items) <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(WORKERS) as pool:
        return pool.map(fn, items, chunksize=4)


# ---------------------------------------------------------------------------
# shared workers (module-level for pickling)
# ---------------------------------------------------------------------------


def _tiny_removal_traj(item):
    family, seed, scorer = item
    lp = generate(InstanceSpec(family, "tiny", seed=seed))
    cfg = RunConfig(max_iters=8, seed=seed)
    return family, seed, run_policy(lp, scorer, cfg, instance_id=f"{family}-{seed}")


def _tiny_addonly_traj(item):
    family, seed, policy = item
    lp = generate(InstanceSpec(family, "tiny", seed=seed))
    cfg = RunConfig(max_iters=8, seed=seed)
    return family, seed, run_policy(lp, policy, cfg, instance_id=f"{family}-{seed}")


def _collect_small_traj(item):
    family, seed, max_iters = item
    spec = InstanceSpec(family, "small", seed=seed)
    lp = generate(spec)
    cfg = RunConfig(max_iters=max_iters, seed=seed, record_scores=True)
    return seed, run_policy(lp, "lookahead", cfg, instance_id=spec.instance_id)


def _eval_curve(item):
    family, seed, policy, model_doc, z_int, max_iters = item
    lp = generate(InstanceSpec(family, "small", seed=seed))
    model = None
    if model_doc is not None:
        from cutplane.model import MlpParams

        model = MlpParams(
            model_doc["layer_dims"],
            [np.array(w) for w in model_doc["weights"]],
            [np.array(b) for b in model_doc["biases"]],
            np.array(model_doc["feat_mean"]),
            np.array(model_doc["feat_std"]),
        )
    traj = run_policy(lp, policy, RunConfig(max_iters=max_iters, seed=seed), model=model)
    return seed, extend_curve(compute_igc(traj, z_int), max_iters)


def _oracle_value(item):
    family, preset, seed = item
    lp = generate(InstanceSpec(family, preset, seed=seed))
    res = solve_ilp(lp)
    assert res.status == "optimal", f"oracle failed on {family}-{preset}-{seed}"
    return seed, res.value


def _dist_metrics(item):
    family, seed, policy, max_iters = item
    lp = generate(InstanceSpec(family, "small", seed=seed))
    cfg = RunConfig(max_iters=max_iters, seed=seed, record_scores=True)
    traj = run_policy(lp, policy, cfg)
    out = []
    for rec in traj.records:
        metrics = pool_metrics(rec)
        if metrics is not None:
            out.append((rec.k, metrics[0], metrics[1]))
    return out


def _model_to_doc(params):
    return {
        "layer_dims": params.layer_dims,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "feat_mean": params.feat_mean.tolist(),
        "feat_std": params.feat_std.tolist(),
    }


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

N_VALIDITY = 200   # per family
N_PRESERVE = 20    # per family (100 total)
N_EVAL = 50        # per family
N_DIST = 500       # per family+policy


@pytest.fixture(scope="session")
def removal_bank():
    """Removal-mode trajectories on the validity bank: (family, seed) -> Trajectory."""
    items = [(fam, SEED_VALIDITY + i, "remove-random")
             for fam in FAMILIES for i in range(N_VALIDITY)]
    return {(f, s): t for f, s, t in _pmap(_tiny_removal_traj, items)}


@pytest.fixture(scope="session")
def preserve_bank():
    items = [(fam, SEED_PRESERVE + i, "remove-lookahead")
             for fam in FAMILIES for i in range(N_PRESERVE)]
    return {(f, s): t for f, s, t in _pmap(_tiny_removal_traj, items)}


@pytest.fixture(scope="session")
def addonly_bank():
    items = [(fam, SEED_ADDONLY + i, pol)
             for fam in FAMILIES for i in range(20)
             for pol in ("random", "lookahead")]
    out = {}
    for f, s, t in _pmap(_tiny_addonly_traj, items):
        out[(f, s, t.policy_id)] = t
    return out


def _family_model(family, n_train, n_val, max_iters=12):
    train_items = [(family, SEED_TRAIN + i, max_iters) for i in range(n_train)]
    val_items = [(family, SEED_VAL + i, max_iters) for i in range(n_val)]
    train_trajs = [t for _, t in _pmap(_collect_small_traj, train_items)]
    val_trajs = [t for _, t in _pmap(_collect_small_traj, val_items)]
    instances = {}
    for fam, seed, _ in train_items + val_items:
        spec = InstanceSpec(fam, "small", seed=seed)
        instances[spec.instance_id] = generate(spec)
    train_set = build_dataset(train_trajs, instances, family=family)
    val_set = build_dataset(val_trajs, instances, family=family)
    params, report = train_sgd(train_set, val_set, Hyperparams(seed=0))
    return params, report, train_set, val_set


@pytest.fixture(scope="session")
def packing_model():
    return _family_model("packing", n_train=200, n_val=50)


@pytest.fixture(scope="session")
def setcover_model():
    return _family_model("set_cover", n_train=60, n_val=20)


# ---------------------------------------------------------------------------
# criterion 1: cut validity
# ---------------------------------------------------------------------------


def test_criterion_1_cut_validity(removal_bank):
    """Every Gomory cut at every iteration separates its fractional optimum and
    keeps every enumerated integer point feasible (200 instances/family)."""
    checked = 0
    bad_sep = 0
    bad_safe = 0
    failures = 0
    for (family, seed), traj in removal_bank.items():
        lp = generate(InstanceSpec(family, "tiny", seed=seed))
        points = enumerate_integer_points(lp, integer_box(lp))
        if traj.status == NUMERICAL_FAILURE:
            failures += 1
        for rec in traj.records:
            if not rec.pool_ids:
                continue
            active = [traj.cuts[i] for i in rec.active_ids]
            gen_sol = solve_lp(apply_cuts(lp, active))
            assert gen_sol.status == OPTIMAL
            x_gen = np.asarray(gen_sol.x, dtype=float)
            for cid in rec.pool_ids:
                cut = traj.cuts[cid]
                assert cut.kind == GOMORY
                checked += 1
                if cut.violation(x_gen) <= 1e-7:
                    bad_sep += 1
                if points.size and np.max(points @ cut.alpha - cut.beta) > 1e-7:
                    bad_safe += 1
    ok = bad_sep == 0 and bad_safe == 0 and failures == 0 and checked > 0
    record(1, "cut validity (separation + integer-point safety)", ok,
           f"{checked} cuts, {bad_sep} separation / {bad_safe} safety violations, "
           f"{failures} numerical failures")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: integer-optimum preservation
# ---------------------------------------------------------------------------


def test_criterion_2_integer_optimum_preserved(preserve_bank):
    """ilp(H u P_k) == ilp(H) exactly at every removal iteration (100 instances)."""
    mismatches = 0
    checks = 0
    for (family, seed), traj in preserve_bank.items():
        lp = generate(InstanceSpec(family, "tiny", seed=seed))
        base = solve_ilp(lp)
        assert base.status == "optimal"
        for rec in traj.records:
            active = [traj.cuts[i] for i in rec.active_ids]
            res = solve_ilp(apply_cuts(lp, active))
            checks += 1
            if res.status != "optimal" or res.value != base.value:
                mismatches += 1
    ok = mismatches == 0 and checks >= 100
    record(2, "integer-optimum preservation across removal iterations", ok,
           f"{checks} oracle comparisons, {mismatches} mismatches")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: monotonicity and IGC bounds
# ---------------------------------------------------------------------------


def test_criterion_3_monotonicity_and_igc(removal_bank, preserve_bank, addonly_bank):
    trajs = []
    for (family, seed), traj in itertools.chain(removal_bank.items(), preserve_bank.items()):
        trajs.append((family, seed, traj))
    for (family, seed, _pol), traj in addonly_bank.items():
        trajs.append((family, seed, traj))
    non_monotone = 0
    igc_bad = 0
    n_igc = 0
    z_cache = {}
    for family, seed, traj in trajs:
        v = traj.lp_values
        if np.any(np.diff(v) < -1e-7):
            non_monotone += 1
        key = (family, seed)
        if key not in z_cache:
            lp = generate(InstanceSpec(family, "tiny", seed=seed))
            z_cache[key] = solve_ilp(lp).value
        igc = compute_igc(traj, z_cache[key])
        n_igc += 1
        zero_gap = z_cache[key] - v[0] <= 1e-9
        if np.any(igc < 0) or np.any(igc > 1) or np.any(np.diff(igc) < -1e-12):
            igc_bad += 1
        elif zero_gap and not np.all(igc == 1.0):
            igc_bad += 1
        elif not zero_gap and igc[0] != 0.0:
            igc_bad += 1
    ok = non_monotone == 0 and igc_bad == 0
    record(3, "lp_value monotonicity and IGC in [0,1] with IGC_1 = 0", ok,
           f"{len(trajs)} trajectories ({n_igc} IGC curves), "
           f"{non_monotone} non-monotone, {igc_bad} IGC violations")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: constraint budget
# ---------------------------------------------------------------------------


def test_criterion_4_constraint_budget(removal_bank, preserve_bank):
    """|P_1| = 0; |P_{k+1}| = min(k+1, |P_k u C_k|) + 1; so |P_k| <= k+1 always
    and the LP row count grows linearly in k."""
    violations = 0
    n_checked = 0
    for traj in itertools.chain(removal_bank.values(), preserve_bank.values()):
        recs = traj.records
        if not recs:
            continue
        n_checked += 1
        if recs[0].n_active != 0:
            violations += 1
            continue
        for prev, cur in zip(recs, recs[1:]):
            expected = min(prev.k + 1, prev.n_active + prev.pool_size) + 1
            if cur.n_active != expected or cur.n_active > cur.k + 1:
                violations += 1
                break
    ok = violations == 0 and n_checked > 0
    record(4, "removal-mode cut budget |P_k| bookkeeping", ok,
           f"{n_checked} trajectories, {violations} violations")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: simplex and branch-and-bound vs brute force
# ---------------------------------------------------------------------------


def _vertex_oracle_value(lp):
    """Enumerate all basic solutions of the standard form (batched)."""
    sf = to_standard_form(lp)
    m, width = sf.aug.shape
    combos = np.array(list(itertools.combinations(range(width), m)))
    B = sf.aug[:, combos].transpose(1, 0, 2)
    dets = np.abs(np.linalg.det(B))
    keep = dets > 1e-8
    if not np.any(keep):
        return None
    nk = int(keep.sum())
    rhs3 = np.broadcast_to(sf.rhs[:, None], (nk, m, 1))
    xb = np.linalg.solve(B[keep], rhs3)[..., 0]
    feas = np.all(xb >= -1e-9, axis=1)
    if not np.any(feas):
        return None
    c_ext = np.zeros(width)
    c_ext[: lp.num_vars] = lp.objective
    vals = np.sum(c_ext[combos[keep][feas]] * xb[feas], axis=1)
    return float(vals.min())


def _random_bounded_lp(rng, ub_hi=6):
    n = int(rng.integers(2, 11))
    m_extra = 10 - n
    A = rng.integers(-3, 6, size=(m_extra, n)).astype(float)
    b = rng.integers(1, 12, size=m_extra).astype(float)
    ub = rng.integers(2, ub_hi + 1, size=n).astype(float)
    A_all = np.vstack([A, np.eye(n)]) if m_extra else np.eye(n)
    b_all = np.concatenate([b, ub]) if m_extra else ub
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(objective=c, A=A_all, b=b_all, senses=[LE] * len(b_all))


def test_criterion_5_solver_equivalence():
    rng = np.random.default_rng(777)
    lp_checked = lp_bad = 0
    for _ in range(500):
        lp = _random_bounded_lp(rng)
        ref = _vertex_oracle_value(lp)
        sol = solve_lp(lp)
        if ref is None:
            if sol.status == OPTIMAL:
                lp_bad += 1
            continue
        lp_checked += 1
        if sol.status != OPTIMAL or abs(sol.value - ref) > 1e-6:
            lp_bad += 1

    ilp_checked = ilp_bad = 0
    for trial in range(200):
        if trial < 125:
            family = FAMILIES[trial % 5]
            lp = generate(InstanceSpec(family, "tiny", seed=50_000 + trial))
        else:
            lp = _random_bounded_lp(rng, ub_hi=3)  # keeps the enumeration box < 10^7
        box = integer_box(lp)
        pts = enumerate_integer_points(lp, box)
        res = solve_ilp(lp)
        ilp_checked += 1
        if pts.shape[0] == 0:
            if res.status != "infeasible":
                ilp_bad += 1
            continue
        brute = int((pts @ np.round(lp.objective).astype(np.int64)).min())
        if res.status != "optimal" or res.value != brute:
            ilp_bad += 1
    ok = lp_bad == 0 and ilp_bad == 0 and lp_checked >= 400 and ilp_checked == 200
    record(5, "simplex vs vertex enumeration; B&B vs exhaustive enumeration", ok,
           f"{lp_checked} LPs ({lp_bad} bad), {ilp_checked} ILPs ({ilp_bad} bad)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: gradient check
# ---------------------------------------------------------------------------


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(99)
    h = 1e-5
    worst = 0.0
    for draw in range(100):
        params = init_params(layer_dims=[NUM_FEATURES, 6, 1], seed=draw)
        X = rng.normal(size=(4, NUM_FEATURES))
        y = rng.normal(size=4)
        _, gw, gb = loss_and_grads(params, X, y)
        for li in range(len(params.weights)):
            for arr, grad in ((params.weights[li], gw[li]), (params.biases[li], gb[li])):
                flat = arr.reshape(-1)
                gflat = np.asarray(grad).reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = mse(params, X, y)
                    flat[idx] = orig - h
                    dn = mse(params, X, y)
                    flat[idx] = orig
                    fd = (up - dn) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(fd - gflat[idx]) / denom)
    ok = worst < 1e-4
    record(6, "analytic gradients vs central finite differences", ok,
           f"max relative error {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: learning signal
# ---------------------------------------------------------------------------


def test_criterion_7_learning_signal(packing_model):
    from collections import defaultdict

    from scipy.stats import spearmanr

    params, report, train_set, val_set = packing_model
    Xv = np.stack([s.features for s in val_set])
    yv = np.array([s.target for s in val_set])
    val_mse = mse(params, Xv, yv)
    var = float(np.var(yv))

    pools = defaultdict(list)
    for s in val_set:
        if s.features[-1] == 1.0:  # latest-pool cuts only
            pools[(s.instance_id, s.iteration)].append(s)
    rhos = []
    for samples in pools.values():
        if len(samples) < 3:
            continue
        targets = np.array([s.target for s in samples])
        if np.all(targets == targets[0]):
            continue
        preds = forward(params, np.stack([s.features for s in samples]))
        rho = spearmanr(preds, targets).correlation
        if math.isfinite(rho):
            rhos.append(rho)
    median_rho = float(np.median(rhos))
    ok = val_mse < 0.5 * var and median_rho > 0 and len(rhos) > 50
    record(7, "learned scorer: val MSE < 0.5*Var(targets), median Spearman > 0", ok,
           f"val MSE {val_mse:.3e} vs 0.5*var {0.5 * var:.3e}; "
           f"median rho {median_rho:.3f} over {len(rhos)} cutpools")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: directional reproduction of the benchmark figure
# ---------------------------------------------------------------------------

ADD_BASELINES = ("random", "mv", "mnv", "lex", "minsim", "lookahead")


@pytest.fixture(scope="session")
def eval_curves(packing_model, setcover_model):
    """Mean IGC curves at desk scale: 50 test instances/family, 15 iterations."""
    max_iters = 15
    models = {"packing": _model_to_doc(packing_model[0]),
              "set_cover": _model_to_doc(setcover_model[0])}
    curves = {}
    for family in FAMILIES:
        seeds = [SEED_EVAL + i for i in range(N_EVAL)]
        z = dict(_pmap(_oracle_value, [(family, "small", s) for s in seeds]))
        policies = list(ADD_BASELINES) + ["remove-lookahead"]
        if family in models:
            policies += ["neural", "remove-neural"]
        for policy in policies:
            doc = models.get(family) if policy in ("neural", "remove-neural") else None
            items = [(family, s, policy, doc, z[s], max_iters) for s in seeds]
            got = _pmap(_eval_curve, items)
            curves[(family, policy)] = np.stack([c for _, c in sorted(got)]).mean(axis=0)
    return curves


def test_criterion_8_removal_beats_addition(eval_curves):
    at = 9  # iteration 10
    problems = []
    for family in ("packing", "set_cover"):
        rl = eval_curves[(family, "remove-lookahead")][at]
        for policy in list(ADD_BASELINES) + ["neural"]:
            base = eval_curves[(family, policy)][at]
            if rl < base - 0.02:
                problems.append(f"{family}: remove-lookahead {rl:.3f} < {policy} {base:.3f}")
    rn = eval_curves[("packing", "remove-neural")][at]
    best_nonla = max(eval_curves[("packing", p)][at]
                     for p in ("random", "mv", "mnv", "lex", "minsim", "neural"))
    if rn < best_nonla - 0.05:
        problems.append(f"packing: remove-neural {rn:.3f} < best non-look-ahead {best_nonla:.3f}")
    detail = (
        f"iter-10 packing: remove-lookahead {eval_curves[('packing', 'remove-lookahead')][at]:.3f}, "
        f"lookahead {eval_curves[('packing', 'lookahead')][at]:.3f}, "
        f"remove-neural {rn:.3f}, best non-LA add {best_nonla:.3f}; "
        f"set_cover: remove-lookahead {eval_curves[('set_cover', 'remove-lookahead')][at]:.3f}, "
        f"lookahead {eval_curves[('set_cover', 'lookahead')][at]:.3f}"
    )
    ok = not problems
    record(8, "cut removal >= addition baselines at iteration 10 (desk scale)", ok,
           detail if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_8_full_preset_pipeline(tmp_path_factory):
    """The benchmark-dimension pipeline runs end to end and emits curves.

    Results are reported, not gated; the full 2000/500/500-instance run is the
    same invocation with ``gen --count 2000,500,500``.
    """
    out = tmp_path_factory.mktemp("fullpreset")
    base = ["--family", "packing", "--preset", "train", "--out", str(out)]
    cli_main(["gen", "--count", "3,2,3", "--seed", "21"] + base)
    cli_main(["oracle"] + base)
    cli_main(["collect", "--max-iters", "6"] + base)
    cli_main(["train"] + base)
    cli_main(["eval", "--max-iters", "6", "--policies",
              "random,lookahead,remove-lookahead,remove-neural",
              "--model", str(out / "models" / "packing-train.json")] + base)
    csv = out / "igc_packing.csv"
    ok = csv.exists() and len(csv.read_text().splitlines()) == 2 + 4 * 6
    lines = [ln for ln in csv.read_text().splitlines() if ln.startswith("remove-lookahead,6")]
    record(8, "full-preset (50-var) pipeline completes and emits curves", ok,
           f"reported, not gated: {lines[0] if lines else 'missing'}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: cutpool quality concentrates in early iterations
# ---------------------------------------------------------------------------


def test_criterion_9_distribution_mass_decay():
    max_iters = 10
    problems = []
    details = []
    for family in ("packing", "set_cover"):
        for policy in ("random", "lookahead"):
            items = [(family, SEED_DIST + i, policy, max_iters) for i in range(N_DIST)]
            per_iter = {}
            for metrics_list in _pmap(_dist_metrics, items):
                for k, m1, m2 in metrics_list:
                    per_iter.setdefault(k, []).append((m1, m2))
            mats = aggregate_distribution(per_iter, max_iters)
            for name in ("M2", "M1"):
                first = float(mats[name][0].sum())
                last = float(mats[name][-1].sum())
                if name == "M2":
                    details.append(f"{family}/{policy}: M2 row1 {first:.2f} vs row{max_iters} {last:.2f}")
                    if not first > last:
                        problems.append(f"{family}/{policy}: M2 first {first:.3f} <= last {last:.3f}")
            if np.any(mats["M2"] < 0) or np.any(mats["M2"] > 1 + 1e-12):
                problems.append(f"{family}/{policy}: M2 out of [0,1]")
    ok = not problems
    record(9, "M2 mass concentrates in early iterations (500-instance runs)", ok,
           "; ".join(details) if ok else "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism
# ---------------------------------------------------------------------------


def _run_pipeline(out, workers):
    base = ["--family", "packing", "--preset", "small", "--out", str(out),
            "--workers", str(workers)]
    cli_main(["gen", "--count", "8,4,8", "--seed", "42"] + base)
    cli_main(["oracle"] + base)
    cli_main(["collect", "--max-iters", "8"] + base)
    cli_main(["train"] + base)
    cli_main(["collect", "--role", "test", "--policies", "random,lookahead",
              "--max-iters", "8"] + base)
    cli_main(["eval", "--max-iters", "8", "--policies",
              "random,mv,lookahead,remove-lookahead,remove-random,remove-neural",
              "--model", str(out / "models" / "packing-small.json")] + base)
    cli_main(["analyze", "--max-iters", "8"] + base)


def test_criterion_10_pipeline_determinism(tmp_path_factory):
    a = tmp_path_factory.mktemp("det_a")
    b = tmp_path_factory.mktemp("det_b")
    _run_pipeline(a, workers=1)
    _run_pipeline(b, workers=2)
    targets = [
        "igc_packing.csv",
        "dist_packing_M1_random.csv",
        "dist_packing_M1_lookahead.csv",
        "dist_packing_M2_random.csv",
        "dist_packing_M2_lookahead.csv",
        "models/packing-small.json",
        "models/packing-small-report.json",
        "models/packing-small-train-dataset.csv",
        "oracle/packing-small-test.json",
    ]
    diffs = [t for t in targets if (a / t).read_bytes() != (b / t).read_bytes()]
    ok = not diffs
    record(10, "repeated pipeline runs are byte-identical (workers 1 vs 2)", ok,
           f"{len(targets)} artifacts compared" if ok else f"differs: {diffs}")
    assert ok, diffs
