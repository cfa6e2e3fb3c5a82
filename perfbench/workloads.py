"""The benchmark's workloads: inputs drawn from the seed, and one timed pass over them.

A pass is a fixed list of operations, so every pass of one seed does the same
work and must produce the same outputs.  An operation is one cutting-plane
trajectory or one oracle ILP solve; the pass times each one.  The program is
reached only through its public functions (``engine.run_policy``,
``instances.generate``) and the CLI's ``main``, always with one worker.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

clock = time.perf_counter

FAMILIES = ("packing", "bin_packing", "max_cut", "production_planning", "set_cover")
HEURISTICS = ("random", "mv", "mnv", "lex", "minsim")
PIPELINE_ARTIFACTS = (
    "igc_packing.csv",
    "dist_packing_M1_random.csv",
    "dist_packing_M1_lookahead.csv",
    "dist_packing_M2_random.csv",
    "dist_packing_M2_lookahead.csv",
    "models/packing-small.json",
    "models/packing-small-report.json",
    "models/packing-small-train-dataset.csv",
    "oracle/packing-small-test.json",
)


@dataclass
class Instance:
    iid: str
    seed: int
    lp: object


@dataclass
class PassResult:
    wall: float = 0.0
    traj_s: list = field(default_factory=list)
    ilp_s: list = field(default_factory=list)
    trajectories: list = field(default_factory=list)  # (instance id, Trajectory)
    ilps: list = field(default_factory=list)          # (instance id, IlpResult)
    instances: dict = field(default_factory=dict)     # instance id -> LinearProgram
    igc: list | None = None    # final IGC per (instance, policy); None: needs reference z*
    digest: str = ""
    iters: int = 0
    failed: int = 0

    def summarize(self, cp, digest: str) -> None:
        """Record the pass's digest, iteration count and failed operations."""
        self.digest = digest
        self.iters = sum(len(t.records) for _, t in self.trajectories)
        self.failed = (sum(t.status == cp.engine.NUMERICAL_FAILURE for _, t in self.trajectories)
                       + sum(r.status != "optimal" for _, r in self.ilps))

    def release(self) -> None:
        """Drop the outputs once summarized; only the first pass is checked."""
        self.trajectories, self.ilps, self.instances = [], [], {}


def draw(cp, family: str, preset: str, seed: int) -> Instance:
    """An instance whose LP relaxation is solvable, redrawn the way ``cutplane gen`` does."""
    for attempt in range(100):
        s = seed + attempt * cp.cli.RETRY_STRIDE
        spec = cp.instances.InstanceSpec(family, preset, s)
        lp = cp.instances.generate(spec)
        if cp.lp.solve_lp(lp).status == cp.lp.OPTIMAL:
            return Instance(spec.instance_id, s, lp)
    raise RuntimeError(f"no solvable {family}-{preset} instance near seed {seed}")


def _digest_outputs(result: PassResult) -> str:
    """Digest of everything a pass decided: statuses, LP values, cut choices and cuts."""
    h = hashlib.sha256()
    for iid, traj in result.trajectories:
        h.update(f"{iid}|{traj.policy_id}|{traj.status}".encode())
        h.update(np.asarray(traj.lp_values, dtype=float).tobytes())
        for rec in traj.records:
            h.update(repr((rec.pool_ids, rec.selected_ids, rec.removed_ids)).encode())
        for cid in sorted(traj.cuts):
            cut = traj.cuts[cid]
            h.update(np.asarray(cut.alpha, dtype=float).tobytes() + repr(float(cut.beta)).encode())
    for iid, r in result.ilps:
        h.update(repr((iid, r.status, r.value, r.nodes_explored)).encode())
    return h.hexdigest()


class OpsWorkload:
    """Trajectories called directly on generated instances.

    ``mix`` lists (family, preset, instances per pass);
    ``policies`` run on every instance for ``max_iters`` iterations.
    """

    def __init__(self, name, why, mix, policies, max_iters, tiny_iters=3):
        self.name, self.why = name, why
        self.mix, self.policies, self.max_iters = mix, policies, max_iters
        self.tiny_iters = tiny_iters

    def setup(self, cp, seed: int, tiny: bool = False) -> dict:
        insts = []
        for f, (family, preset, n) in enumerate(self.mix):
            count = 1 if tiny else n
            preset = "tiny" if tiny else preset
            insts += [draw(cp, family, preset, 1000 * seed + 100 * f + i) for i in range(count)]
        return {"instances": insts, "max_iters": self.tiny_iters if tiny else self.max_iters}

    def run(self, cp, inputs: dict, workdir: Path) -> PassResult:
        res = PassResult()
        RunConfig = cp.engine.RunConfig
        iters = inputs["max_iters"]
        t_pass = clock()
        for inst in inputs["instances"]:
            for policy in self.policies:
                t0 = clock()
                cfg = RunConfig(max_iters=iters, seed=inst.seed)
                traj = cp.engine.run_policy(inst.lp, policy, cfg, inst.iid)
                res.traj_s.append(clock() - t0)
                res.trajectories.append((inst.iid, traj))
        res.wall = clock() - t_pass
        res.instances = {inst.iid: inst.lp for inst in inputs["instances"]}
        res.summarize(cp, _digest_outputs(res))
        return res


class PipelineWorkload:
    """The criterion-10 CLI sequence on packing ``small``, one fresh output directory per pass."""

    name = "pipeline-small"
    why = ("the CLI sequence a user runs; only workload with training, the neural scorer "
           "and file I/O; add look-ahead scoring dominates")
    counts = (8, 4, 20)
    max_iters = 8
    eval_policies = "random,mv,lookahead,remove-lookahead,remove-random,remove-neural"

    def setup(self, cp, seed: int, tiny: bool = False) -> dict:
        counts = (2, 1, 2) if tiny else self.counts
        return {"seed": 1000 * seed, "counts": ",".join(map(str, counts)),
                "preset": "tiny" if tiny else "small", "max_iters": 3 if tiny else self.max_iters,
                "pass": 0}

    def run(self, cp, inputs: dict, workdir: Path) -> PassResult:
        inputs["pass"] += 1
        out = workdir / f"pipeline-{inputs['pass']}"
        shutil.rmtree(out, ignore_errors=True)
        res = PassResult()
        iters = str(inputs["max_iters"])
        base = ["--family", "packing", "--preset", inputs["preset"], "--out", str(out),
                "--workers", "1"]
        steps = [
            ["gen", "--count", inputs["counts"], "--seed", str(inputs["seed"])],
            ["oracle"],
            ["collect", "--max-iters", iters],
            ["train"],
            ["collect", "--role", "test", "--policies", "random,lookahead", "--max-iters", iters],
            ["eval", "--max-iters", iters, "--policies", self.eval_policies,
             "--model", str(out / "models" / f"packing-{inputs['preset']}.json")],
            ["analyze", "--max-iters", iters],
        ]
        timers = [
            (cp.cli, "run_policy", functools.partial(_timed, res.traj_s, res.trajectories)),
            (cp.cli, "solve_ilp", functools.partial(_timed, res.ilp_s, res.ilps)),
        ]
        with spans.patched(timers):
            t_pass = clock()
            for argv in steps:
                cp.cli.main(argv + base)
            res.wall = clock() - t_pass
        for path in sorted((out / "instances").rglob("*.json")):
            lp, doc = cp.instances.load_instance(path)
            res.instances[doc["instance_id"]] = lp
        res.igc = _final_igc(out / "igc_packing.csv", int(iters))
        h = hashlib.sha256()
        for name in PIPELINE_ARTIFACTS:
            art = name.replace("small", inputs["preset"])
            h.update(art.encode() + b"\0" + (out / art).read_bytes())
        res.summarize(cp, h.hexdigest())
        return res


def _timed(durations: list, outputs: list, fn):
    """Wrap ``fn`` (whose first argument is an LP) to record its duration and result."""
    @functools.wraps(fn)
    def op(lp, *args, **kwargs):
        t0 = clock()
        out = fn(lp, *args, **kwargs)
        durations.append(clock() - t0)
        outputs.append((lp.name, out))
        return out
    return op


def _final_igc(path: Path, max_iters: int) -> list[float]:
    """Per-policy mean IGC at the last iteration, repeated once per instance."""
    with open(path) as fh:
        rows = [r for r in csv.DictReader(line for line in fh if not line.startswith("#"))]
    out = []
    for r in rows:
        if int(r["iteration"]) == max_iters:
            out += [float(r["mean_igc"])] * int(r["n_instances"])
    return out


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(),
        OpsWorkload(
            "heuristic-train",
            "five add-only heuristics for 20 iterations at train size; cold solves and cutpool "
            "generation dominate, no look-ahead: the bypass workload for scoring changes",
            [(f, "train", 6) for f in FAMILIES],
            HEURISTICS, max_iters=20),
    )
}
