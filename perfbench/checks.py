"""Correctness checks against HiGHS, run after the timed passes.

* every oracle z* equals the ``scipy.optimize.milp`` (HiGHS) optimum within 1e-6;
* every generated cut holds at the HiGHS integer optimum (1e-7, as in
  acceptance criterion 1);
* removal-mode LP values never decrease (1e-7, as in criterion 3).

HiGHS optima are cached by instance id together with a digest of the
instance data, so a cached value is only used for the exact same instance.
``reference.json`` ships the optima that take HiGHS seconds to find; the
rest are computed on first use and kept in the run's state directory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

Z_TOL = 1e-6
CUT_TOL = 1e-7
MONOTONE_TOL = 1e-7


def instance_digest(lp) -> str:
    h = hashlib.sha256()
    for arr in (lp.objective, lp.A, lp.b):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update("|".join(lp.senses).encode())
    return h.hexdigest()[:16]


def highs_optimum(lp) -> tuple[float, list[int]]:
    """Proven integer optimum (value, point) of ``lp`` from HiGHS with a zero gap."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    senses = np.array(lp.senses)
    lo = np.where(senses == "<=", -np.inf, lp.b)
    hi = np.where(senses == ">=", np.inf, lp.b)
    res = milp(lp.objective, constraints=LinearConstraint(lp.A, lo, hi),
               integrality=np.ones(lp.num_vars), bounds=Bounds(0, np.inf),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum for {lp.name}: {res.message}")
    x = np.round(res.x).astype(np.int64)
    lhs = np.round(lp.A).astype(np.int64) @ x
    b = np.round(lp.b).astype(np.int64)
    ok = all((s == "<=" and l <= r) or (s == ">=" and l >= r) or (s == "=" and l == r)
             for s, l, r in zip(lp.senses, lhs, b))
    if not ok or np.any(x < 0):
        raise RuntimeError(f"HiGHS point for {lp.name} is not integer feasible")
    return float(np.round(lp.objective) @ x), [int(v) for v in x]


class References:
    """HiGHS optima by instance id: shipped cache, then state cache, then a fresh solve.

    New optima are written to ``state`` by :meth:`save`; passing the shipped
    path as ``state`` rebuilds the shipped cache.
    """

    def __init__(self, shipped: Path, state: Path):
        self._state_path = state
        self._entries = {}
        for path in (shipped, state):
            if path.exists():
                self._entries.update(json.loads(path.read_text()))
        self._dirty = False

    def get(self, iid: str, lp) -> tuple[float, np.ndarray]:
        digest = instance_digest(lp)
        entry = self._entries.get(iid)
        if entry is None or entry["digest"] != digest:
            z, x = highs_optimum(lp)
            entry = {"digest": digest, "z": z, "x": x}
            self._entries[iid] = entry
            self._dirty = True
        return entry["z"], np.asarray(entry["x"], dtype=float)

    def save(self) -> None:
        """Write every entry, one line each, to the state path."""
        if self._dirty:
            lines = [f"{json.dumps(iid)}: {json.dumps(self._entries[iid], sort_keys=True)}"
                     for iid in sorted(self._entries)]
            self._state_path.parent.mkdir(parents=True, exist_ok=True)
            self._state_path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
            self._dirty = False


def check_pass(result, refs: References) -> tuple[int, list[str]]:
    """Run every check on one pass; returns (checks made, failure messages)."""
    made, failures = 0, []
    for iid, ilp in result.ilps:
        z, _ = refs.get(iid, result.instances[iid])
        made += 1
        if ilp.status != "optimal" or ilp.value is None or abs(ilp.value - z) > Z_TOL:
            failures.append(f"{iid}: oracle z*={ilp.value} ({ilp.status}), HiGHS z*={z}")
    for iid, traj in result.trajectories:
        _, x = refs.get(iid, result.instances[iid])
        made += 1
        bad = [c.id for c in traj.cuts.values() if float(c.alpha @ x) - float(c.beta) > CUT_TOL]
        if bad:
            failures.append(f"{iid}/{traj.policy_id}: cuts {bad} cut off the HiGHS optimum")
        if traj.mode == "removal":
            made += 1
            drops = np.diff(traj.lp_values)
            if np.any(drops < -MONOTONE_TOL):
                failures.append(f"{iid}/{traj.policy_id}: removal LP value fell by "
                                f"{-float(drops.min()):.3g}")
    return made, failures


def final_igc(cp, result, refs: References) -> list[float]:
    """Final IGC per (instance, policy); the CLI pass scores its own against the oracle,
    trajectories run directly are scored against the HiGHS optimum."""
    if result.igc is not None:
        return result.igc
    out = []
    for iid, traj in result.trajectories:
        igc = cp.engine.compute_igc(traj, refs.get(iid, result.instances[iid])[0])
        out.append(float(igc[-1]) if igc.size else 0.0)
    return out
