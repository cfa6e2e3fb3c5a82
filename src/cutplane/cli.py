"""Benchmark orchestrator: gen | oracle | collect | train | eval | analyze.

Every command is deterministic given its seeds: worker scheduling never touches
output content (results are keyed and sorted by instance id), CSV floats are
printed with repr, and wall-clock timings go to the log, never into output
files, so re-runs are byte-identical.

A flat key=value config file can stand in for any flag (flags win).  Keys
beyond the flags: node_limit, epochs, lr, batch_size, patience, layer_dims.
A default the library also has is read from it (RunConfig, Hyperparams,
model.LAYER_DIMS, oracle.NODE_LIMIT), not copied; the solver tolerances are
constants of ``cutplane.lp``, not settings.  ``--arith`` is read by
``collect`` and ``eval``; ``train`` replays each trajectory in its own.
``--seed`` is read by ``gen`` and ``train``; ``collect`` and ``eval`` run
each instance with the seed its instance file records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
import time
from dataclasses import fields
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    RunConfig,
    compute_igc,
    extend_curve,
    load_trajectory,
    run_policy,
    save_trajectory,
)
from .instances import FAMILIES, InstanceSpec, PRESETS, generate, load_instance, save_instance
from .lp import FLOAT, OPTIMAL, RATIONAL, solve_lp
from .model import (
    LAYER_DIMS,
    Hyperparams,
    build_dataset,
    load_model,
    save_dataset,
    save_model,
    train_sgd,
)
from .oracle import NODE_LIMIT, solve_ilp
from .policies import ADDITION_KINDS, LOOKAHEAD, NEURAL, REMOVAL_KINDS, REMOVE_NEURAL

logger = logging.getLogger("cutplane.cli")

ROLES = ("train", "val", "test")
ROLE_OFFSETS = {"train": 0, "val": 1_000_000, "test": 2_000_000}
RETRY_STRIDE = 100_000_000
ORACLE_FORMAT_VERSION = 1

DEFAULTS = {
    "family": "packing",
    "preset": "small",
    "count": "20,10,20",
    "seed": 0,
    "policies": "random,mv,mnv,lex,minsim,lookahead,remove-lookahead",
    "max_iters": RunConfig.max_iters,
    "model": None,
    "out": "runs",
    "workers": 1,
    "arith": RunConfig.arithmetic,
    "role": None,
    "node_limit": NODE_LIMIT,
    "epochs": Hyperparams.epochs,
    "lr": Hyperparams.lr,
    "batch_size": Hyperparams.batch_size,
    "patience": Hyperparams.patience,
    "layer_dims": ",".join(map(str, LAYER_DIMS)),
}


class MissingModel(ValueError):
    """A neural policy was requested without a model file."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def read_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


class Settings:
    """Flag > config file > default, with casts driven by the default's type."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict):
        self._args = vars(args)
        self._file = file_cfg
        for key in file_cfg:
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")

    def provided(self, key) -> bool:
        return self._args.get(key) is not None or key in self._file

    def get(self, key):
        flag = self._args.get(key)
        if flag is not None:
            return flag
        if key in self._file:
            return _cast_like(DEFAULTS[key], self._file[key])
        return DEFAULTS[key]

    def get_or(self, key, fallback):
        """Like get(), but with a command-specific fallback instead of the global default."""
        return self.get(key) if self.provided(key) else fallback

    # Settings that change where work happens or how fast, never what comes out.
    _NON_CONTENT = ("out", "workers", "model")

    def hash(self) -> str:
        """Stable digest of every content-affecting setting (metadata provenance)."""
        keys = sorted(k for k in DEFAULTS if k not in self._NON_CONTENT)
        text = ";".join(f"{k}={self.get(k)}" for k in keys)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _cast_like(default, raw: str):
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_counts(text) -> dict[str, int]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError("--count takes 'train,val,test' (e.g. 2000,500,500) or one number")
    return dict(zip(ROLES, (int(p) for p in parts)))


def parse_policies(text) -> list[str]:
    names = [p.strip() for p in str(text).split(",") if p.strip()]
    known = set(ADDITION_KINDS) | set(REMOVAL_KINDS)
    for name in names:
        if name not in known:
            raise ValueError(f"unknown policy {name!r}; choose from {sorted(known)}")
    if not names:
        raise ValueError("policy list is empty")
    return names


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def instances_dir(out: Path, family: str, preset: str, role: str) -> Path:
    return out / "instances" / f"{family}-{preset}" / role


def oracle_path(out: Path, family: str, preset: str, role: str) -> Path:
    return out / "oracle" / f"{family}-{preset}-{role}.json"


def trajectories_dir(out: Path, family: str, preset: str, role: str, policy: str) -> Path:
    return out / "trajectories" / f"{family}-{preset}" / role / policy


def model_path(out: Path, family: str, preset: str) -> Path:
    return out / "models" / f"{family}-{preset}.json"


def list_instances(dir_path: Path) -> list[Path]:
    """The instance files under ``dir_path``; none is an error."""
    paths = sorted(dir_path.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no instances under {dir_path}")
    return paths


def _load_trajectories(out, family, preset, role, policy) -> list:
    """The trajectories one policy collected on one role; none is an error."""
    tdir = trajectories_dir(out, family, preset, role, policy)
    paths = sorted(tdir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(
            f"no trajectories under {tdir}; run `cutplane collect --role {role} "
            f"--policies {policy}` first")
    return [load_trajectory(p) for p in paths]


def metadata_line(cfg: Settings, **extra) -> str:
    tokens = [f"cutplane={__version__}", f"config={cfg.hash()}", f"seed={cfg.get('seed')}"]
    tokens += [f"{k}={v}" for k, v in sorted(extra.items())]
    return "# " + " ".join(tokens)


def _fmt(x: float) -> str:
    return repr(float(x))


def _pool_map(workers: int, fn, items: list):
    """Order-preserving map; results never depend on worker scheduling."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(workers) as pool:
        return pool.map(fn, items, chunksize=1)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(cfg: Settings) -> None:
    family = cfg.get("family")
    preset = cfg.get("preset")
    counts = parse_counts(cfg.get("count"))
    base_seed = int(cfg.get("seed"))
    out = Path(cfg.get("out"))
    redraws = 0
    t0 = time.time()
    for role in ROLES:
        n = counts[role]
        if n <= 0:
            continue
        dest = instances_dir(out, family, preset, role)
        dest.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            for attempt in range(100):
                seed = base_seed + ROLE_OFFSETS[role] + i + attempt * RETRY_STRIDE
                spec = InstanceSpec(family, preset, seed)
                lp = generate(spec)
                if solve_lp(lp).status == OPTIMAL:
                    break
                redraws += 1
                logger.warning("infeasible/unbounded draw for %s, retrying", spec.instance_id)
            else:
                raise RuntimeError(f"could not draw a solvable {family} instance")
            save_instance(lp, spec, dest / f"{spec.instance_id}.json")
        logger.info("gen %s-%s %s: %d instances", family, preset, role, n)
    logger.info("gen finished in %.1fs (%d redraws)", time.time() - t0, redraws)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_one(item):
    path, node_limit = item
    lp, doc = load_instance(path)
    res = solve_ilp(lp, node_limit=node_limit)
    entry = {f.name: getattr(res, f.name) for f in fields(res)}
    if res.x_int is not None:
        entry["x_int"] = res.x_int.tolist()
    return doc["instance_id"], entry


def cmd_oracle(cfg: Settings) -> None:
    family, preset = cfg.get("family"), cfg.get("preset")
    out = Path(cfg.get("out"))
    roles = (cfg.get("role") or "test").split(",")
    node_limit = int(cfg.get("node_limit"))
    workers = int(cfg.get("workers"))
    for role in (r.strip() for r in roles):
        paths = list_instances(instances_dir(out, family, preset, role))
        t0 = time.time()
        results = _pool_map(workers, _oracle_one, [(p, node_limit) for p in paths])
        entries = dict(sorted(results))
        dest = oracle_path(out, family, preset, role)
        dest.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "format_version": ORACLE_FORMAT_VERSION,
            "family": family,
            "preset": preset,
            "role": role,
            "config": cfg.hash(),
            "entries": entries,
        }
        dest.write_text(json.dumps(doc, sort_keys=True))
        logger.info("oracle %s-%s %s: %d instances in %.1fs",
                    family, preset, role, len(entries), time.time() - t0)


def load_oracle(out: Path, family: str, preset: str, role: str) -> dict:
    """The oracle entries by instance id; a malformed cache file, invalid
    JSON or an entry without a numeric or null ``value`` included, raises a
    ValueError naming it (and the entry's instance)."""
    path = oracle_path(out, family, preset, role)
    if not path.exists():
        raise FileNotFoundError(f"oracle cache missing: {path}; run `cutplane oracle` first")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"unreadable oracle file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"oracle file {path} does not hold a JSON object")
    if doc.get("format_version") != ORACLE_FORMAT_VERSION:
        raise ValueError(f"oracle file {path}: unsupported format {doc.get('format_version')!r}")
    if not isinstance(doc.get("entries"), dict):
        raise ValueError(f"malformed oracle file {path}: no 'entries' object")
    for iid, entry in doc["entries"].items():
        value = entry.get("value", "") if isinstance(entry, dict) else ""
        if not (value is None or isinstance(value, (int, float))):
            raise ValueError(f"malformed oracle file {path}: entry {iid} has no numeric "
                             "or null 'value'")
    return doc["entries"]


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------


def _run_kwargs(cfg: Settings, **extra) -> dict:
    """The RunConfig fields that every instance of a collect or eval run shares."""
    return dict(max_iters=int(cfg.get("max_iters")), arithmetic=cfg.get("arith"), **extra)


def _model_for(policy: str, model_file):
    """The model file a policy runs with: None unless it is neural, which needs one."""
    if policy not in (NEURAL, REMOVE_NEURAL):
        return None
    if not model_file:
        raise MissingModel(f"policy {policy} needs --model")
    return model_file


def _run_one(path, policy, run_kwargs, model_file):
    """Load one instance (and the model, if any) and run one policy on it."""
    lp, doc = load_instance(path)
    model = load_model(model_file) if model_file else None
    iid = doc["instance_id"]
    return iid, run_policy(lp, policy, RunConfig(seed=doc["seed"], **run_kwargs), iid, model)


def _collect_one(item):
    path, policy, run_kwargs, dest, model_file = item
    iid, traj = _run_one(path, policy, run_kwargs, model_file)
    save_trajectory(traj, Path(dest) / f"{iid}.json")
    return iid, traj.status


def cmd_collect(cfg: Settings) -> None:
    family, preset = cfg.get("family"), cfg.get("preset")
    out = Path(cfg.get("out"))
    roles = (cfg.get("role") or "train,val").split(",")
    policies = parse_policies(cfg.get_or("policies", "lookahead"))
    workers = int(cfg.get("workers"))
    run_kwargs = _run_kwargs(cfg, record_scores=True)
    for role in (r.strip() for r in roles):
        paths = list_instances(instances_dir(out, family, preset, role))
        for policy in policies:
            model_file = _model_for(policy, cfg.get("model"))
            dest = trajectories_dir(out, family, preset, role, policy)
            dest.mkdir(parents=True, exist_ok=True)
            t0 = time.time()
            items = [(p, policy, run_kwargs, str(dest), model_file) for p in paths]
            results = _pool_map(workers, _collect_one, items)
            statuses = [s for _, s in results]
            logger.info(
                "collect %s-%s %s/%s: %d trajectories in %.1fs (%d integral, %d failures)",
                family, preset, role, policy, len(results), time.time() - t0,
                sum(s == "integral_found" for s in statuses),
                sum(s == "numerical_failure" for s in statuses),
            )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_role(out, family, preset, role):
    """The look-ahead trajectories of one role and its instances by id."""
    trajectories = _load_trajectories(out, family, preset, role, LOOKAHEAD)
    instances = {}
    for p in list_instances(instances_dir(out, family, preset, role)):
        lp, doc = load_instance(p)
        instances[doc["instance_id"]] = lp
    return trajectories, instances


def cmd_train(cfg: Settings) -> None:
    family, preset = cfg.get("family"), cfg.get("preset")
    out = Path(cfg.get("out"))
    t0 = time.time()
    train_trajs, train_insts = _load_role(out, family, preset, "train")
    val_trajs, val_insts = _load_role(out, family, preset, "val")
    train_set = build_dataset(train_trajs, train_insts, family=family)
    val_set = build_dataset(val_trajs, val_insts, family=family)
    logger.info("dataset: %d train / %d val samples (%.1fs)",
                len(train_set), len(val_set), time.time() - t0)
    hp = Hyperparams(
        lr=float(cfg.get("lr")),
        epochs=int(cfg.get("epochs")),
        batch_size=int(cfg.get("batch_size")),
        patience=int(cfg.get("patience")),
        seed=int(cfg.get("seed")),
    )
    dims = [int(d) for d in str(cfg.get("layer_dims")).split(",")]
    t0 = time.time()
    params, report = train_sgd(train_set, val_set, hp, layer_dims=dims)
    logger.info("trained %s in %.1fs: best epoch %d, best val loss %.3e",
                family, time.time() - t0, report.best_epoch,
                report.val_losses[report.best_epoch])
    params.meta.update({
        "family": family, "preset": preset, "config": cfg.hash(),
        "coef_stats_include_beta": True, "coef_stats_rescaled": True,
        "cut_scaling": "none (cuts stored integral; features rescale internally)",
    })
    dest = Path(cfg.get("model") or model_path(out, family, preset))
    dest.parent.mkdir(parents=True, exist_ok=True)
    save_model(params, dest)
    report_doc = {
        "train_losses": report.train_losses,
        "val_losses": report.val_losses,
        "best_epoch": report.best_epoch,
        "stopped_early": report.stopped_early,
        "n_train": len(train_set),
        "n_val": len(val_set),
        "config": cfg.hash(),
    }
    dest.with_name(dest.stem + "-report.json").write_text(json.dumps(report_doc, sort_keys=True))
    save_dataset(train_set, dest.with_name(dest.stem + "-train-dataset.csv"))
    save_dataset(val_set, dest.with_name(dest.stem + "-val-dataset.csv"))
    logger.info("model written to %s", dest)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_one(item):
    path, policy, run_kwargs, model_file, z_int, max_iters = item
    iid, traj = _run_one(path, policy, run_kwargs, model_file)
    return iid, extend_curve(compute_igc(traj, z_int), max_iters)


def cmd_eval(cfg: Settings) -> None:
    family, preset = cfg.get("family"), cfg.get("preset")
    out = Path(cfg.get("out"))
    role = cfg.get("role") or "test"
    policies = parse_policies(cfg.get("policies"))
    workers = int(cfg.get("workers"))
    max_iters = int(cfg.get("max_iters"))
    oracle = load_oracle(out, family, preset, role)
    paths = list_instances(instances_dir(out, family, preset, role))
    run_kwargs = _run_kwargs(cfg)
    rows = []
    for policy in policies:
        model_file = _model_for(policy, cfg.get("model"))
        items = []
        for p in paths:
            iid = p.stem
            entry = oracle.get(iid)
            if entry is None or entry["value"] is None:
                raise KeyError(f"oracle cache has no value for {iid}")
            items.append((p, policy, run_kwargs, model_file, entry["value"], max_iters))
        t0 = time.time()
        results = _pool_map(workers, _eval_one, items)
        curves = np.stack([igc for _, igc in sorted(results)])
        logger.info("eval %s-%s %s: %d instances in %.1fs (mean final IGC %.3f)",
                    family, preset, policy, curves.shape[0], time.time() - t0,
                    curves[:, -1].mean())
        for k in range(max_iters):
            col = curves[:, k]
            rows.append((policy, k + 1, col.mean(), col.var(), col.std(), curves.shape[0]))
    dest = out / f"igc_{family}.csv"
    with open(dest, "w") as fh:
        fh.write(metadata_line(cfg, family=family, preset=preset, role=role,
                               max_iters=max_iters, policies=",".join(policies),
                               arith=cfg.get("arith")) + "\n")
        fh.write("policy,iteration,mean_igc,var_igc,std_igc,n_instances\n")
        for policy, k, mean, var, std, n in rows:
            fh.write(f"{policy},{k},{_fmt(mean)},{_fmt(var)},{_fmt(std)},{n}\n")
    logger.info("wrote %s", dest)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def pool_metrics(record) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-cut M1 (improvement / |previous value|) and M2 (improvement / best
    improvement in the pool) for one recorded iteration; None without scores."""
    if not record.pool_scores:
        return None
    raw = np.array([s if s is not None else -math.inf for s in record.pool_scores])
    impr = np.maximum(raw - record.lp_value, 0.0)
    impr[~np.isfinite(impr)] = 0.0
    m1 = impr / max(abs(record.lp_value), 1e-6)
    top = impr.max() if impr.size else 0.0
    m2 = np.clip(impr / top, 0.0, 1.0) if top > 1e-9 else np.zeros_like(impr)
    return m1, m2


def aggregate_distribution(per_iter: dict, max_iters: int) -> dict[str, np.ndarray]:
    """Row k of D aggregates the sorted-descending metric over every
    iteration-k cutpool, each position divided by its contributor count.
    ``per_iter`` maps k -> list of (m1, m2) arrays."""
    width = 0
    for pools in per_iter.values():
        for m1, _ in pools:
            width = max(width, m1.size)
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


def cmd_analyze(cfg: Settings) -> None:
    family, preset = cfg.get("family"), cfg.get("preset")
    out = Path(cfg.get("out"))
    role = cfg.get("role") or "test"
    policies = parse_policies(cfg.get_or("policies", "random,lookahead"))
    removal = [p for p in policies if p in REMOVAL_KINDS]
    if removal:
        raise ValueError(f"analyze reads the pool scores of add-only trajectories; "
                         f"removal trajectories record none: {','.join(removal)}")
    max_iters = int(cfg.get("max_iters"))
    for policy in policies:
        trajectories = _load_trajectories(out, family, preset, role, policy)
        mats = distribution_matrices(trajectories, max_iters)
        for metric, D in mats.items():
            dest = out / f"dist_{family}_{metric}_{policy}.csv"
            with open(dest, "w") as fh:
                fh.write(metadata_line(cfg, family=family, preset=preset, role=role,
                                       metric=metric, policy=policy,
                                       n_trajectories=len(trajectories)) + "\n")
                fh.write("iteration," + ",".join(f"pos_{j:03d}" for j in range(D.shape[1])) + "\n")
                for k in range(D.shape[0]):
                    fh.write(str(k + 1) + "," + ",".join(_fmt(v) for v in D[k]) + "\n")
            logger.info("wrote %s", dest)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutplane",
        description="Cutting-plane benchmark pipeline: gen -> oracle -> collect -> train -> eval -> analyze",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--preset", choices=tuple(PRESETS["packing"]))
        p.add_argument("--count")
        p.add_argument("--seed", type=int)
        p.add_argument("--policies")
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--model")
        p.add_argument("--out")
        p.add_argument("--workers", type=int)
        p.add_argument("--arith", choices=(FLOAT, RATIONAL))
        p.add_argument("--role")
        p.add_argument("--config")
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "oracle": cmd_oracle,
    "collect": cmd_collect,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}
    cfg = Settings(args, file_cfg)
    COMMANDS[args.command](cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
