"""Benchmark of the cutplane program, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are drawn from ``--seed``;
the workload's fixed pass is repeated until ``--seconds`` are spent, at least
twice; with ``--trace 1`` one untraced pass is followed by one traced pass,
repeated while time remains.  Correctness checks against HiGHS run after the
timed section.  The last line of standard output is the JSON result;
METRICS.md lists every metric and workload.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads, so timings do not
# depend on how many cores the machine happens to have free.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import metrics
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STATE = ROOT / ".perfbench_state"
HIGHS_REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
MIN_PASSES = 2  # untraced passes per run, so the median rests on more than one

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "traj_per_s": "1/s", "cp_iters_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
MODULES = ("lp", "gomory", "oracle", "engine", "policies", "features", "model",
           "instances", "cli")


class Nondeterminism(RuntimeError):
    """Two passes or runs of the same inputs disagreed on outputs or counts."""


def load_program() -> SimpleNamespace:
    """Import the checkout's ``cutplane`` afresh and return its modules."""
    for name in [m for m in sys.modules if m == "cutplane" or m.startswith("cutplane.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cutplane")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported cutplane from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cutplane.{m}") for m in MODULES})


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, src_digest: str) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": commit, "source_sha256": src_digest[:16],
    }


def set_up(workload, seed: int, tiny: bool, times: list):
    """Fresh import of ``cutplane`` plus input generation, SETUP_REPEATS times.

    Each duration is appended to ``times``; returns the last (modules, inputs).
    """
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cp = load_program()
        inputs = workload.setup(cp, seed, tiny=tiny)
        times.append(time.perf_counter() - t0)
    return cp, inputs


def run_passes(workload, seed: int, tiny: bool, seconds: float, trace: bool):
    """Timed passes until ``seconds`` are spent; returns (untraced, [(traced, tracer)],
    setup times, modules).

    Every untraced pass runs on a fresh set-up, and one more set-up follows the
    last pass, so set-up time is sampled at several points of the run: a slow
    spell of the machine during one of them does not move the median.
    Untraced runs make at least MIN_PASSES passes; after that a pass starts
    only if it should end within ``seconds``.
    """
    untraced, traced, setup_times = [], [], []
    start = time.perf_counter()
    while True:
        cp, inputs = set_up(workload, seed, tiny, setup_times)
        untraced.append(workload.run(cp, inputs, WORK))
        last = untraced[-1].wall
        if len(untraced) > 1:
            untraced[-1].release()
        if trace:
            tracer = spans.Tracer()
            with spans.tracing(tracer, cp):
                traced.append((workload.run(cp, inputs, WORK), tracer))
            traced[-1][0].release()
            last += traced[-1][0].wall
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start + last > seconds:
            set_up(workload, seed, tiny, setup_times)
            return untraced, traced, setup_times, cp


def check_state(key: str, digest: str, counts: dict | None) -> None:
    """Compare outputs and deterministic counts with earlier runs of the same key."""
    path = STATE / "runs.json"
    runs = json.loads(path.read_text()) if path.exists() else {}
    seen = runs.setdefault(key, {})
    if seen.get("digest", digest) != digest:
        raise Nondeterminism(f"{key}: output digest {digest[:12]} differs from an earlier "
                             f"run's {seen['digest'][:12]}")
    seen["digest"] = digest
    if counts is not None:
        if seen.get("counts", counts) != counts:
            diff = {k: (seen["counts"].get(k), v) for k, v in counts.items()
                    if seen["counts"].get(k) != v}
            raise Nondeterminism(f"{key}: deterministic counts differ from an earlier run: {diff}")
        seen["counts"] = counts
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(runs, sort_keys=True, indent=1))
    tmp.replace(path)


def per_layer(traced, untraced, igc) -> tuple[dict, str]:
    """Median per-layer metrics over the traced passes; counts must agree exactly.

    Trajectory latency comes from the untraced passes of the run.
    """
    rows = [metrics.layer_metrics(tracer.spans, res.wall) for res, tracer in traced]
    for row in rows[1:]:
        for name in metrics.DETERMINISTIC:
            if row[name] != rows[0][name]:
                raise Nondeterminism(f"{name}: {rows[0][name]} vs {row[name]} across traced passes")
    out = {name: float(np.median([r[name] for r in rows])) for name in rows[0]}
    traced_wall = np.median([res.wall for res, _ in traced])
    out["trace.overhead_frac"] = float(traced_wall / np.median([r.wall for r in untraced]) - 1.0)
    out["quality.igc_final"] = float(np.mean(igc)) if igc else 0.0
    traj_s = [t for r in untraced for t in r.traj_s]
    p_tail, out["engine.traj_s_tail"] = metrics.tail(traj_s)
    out["engine.traj_s_p50"] = metrics.median(traj_s)
    return out, f"engine.traj_s_tail is p{p_tail:g} of {len(traj_s)} trajectory samples"


def end_to_end(setup_times, passes, attempted, failed, peak_rss_mb) -> dict:
    return {
        "setup_s": float(np.median(setup_times)),
        "wall_s": float(np.median([r.wall for r in passes])),
        "traj_per_s": float(np.median([len(r.traj_s) / r.wall for r in passes])),
        "cp_iters_per_s": float(np.median([r.iters / r.wall for r in passes])),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one tiny-preset pass per mode (harness smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "cutplane" / "__init__.py").is_file():
        print(f"error: no cutplane sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seconds = 0.0 if args.tiny else args.seconds

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        untraced, traced, setup_times, cp = run_passes(
            workload, args.seed, args.tiny, seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = untraced + [res for res, _ in traced]
        digests = {r.digest for r in passes}
        if len(digests) != 1:
            raise Nondeterminism(f"{len(passes)} passes of one input gave {len(digests)} "
                                 "different output digests")
        refs = checks.References(HIGHS_REFERENCE, STATE / "highs.json")
        made, failures = checks.check_pass(untraced[0], refs)
        igc = checks.final_igc(cp, untraced[0], refs)
        refs.save()
        layers, note = per_layer(traced, untraced, igc) if traced else (None, "")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    src_digest = tree_digest(SRC)
    key = (f"{args.workload}|seed={args.seed}|tiny={int(args.tiny)}"
           f"|src={src_digest[:16]}|bench={tree_digest(HERE)[:16]}")
    counts = {k: layers[k] for k in metrics.DETERMINISTIC} if layers else None
    check_state(key, passes[0].digest, counts)

    # Every pass repeats the first one's outputs (digests agree), so failures are
    # counted on one pass, beside the checks made on it.
    first = untraced[0]
    attempted = made + len(first.traj_s) + len(first.ilp_s)
    failed = len(failures) + first.failed
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    print("# env " + json.dumps(environment(args, src_digest), sort_keys=True))
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{made} checks, {len(failures)} failed; output digest {passes[0].digest[:16]}")
    if args.trace:
        print(f"# {note}")
        result = {name: {"value": value, "unit": metrics.layer_unit(name)}
                  for name, value in layers.items()}
    else:
        values = end_to_end(setup_times, untraced, attempted, failed, peak_rss_mb)
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in values.items()}
    for name, m in result.items():
        print(f"#   {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Nondeterminism, metrics.CoverageError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)
