"""Print one sha256 per (family, preset, policy) of float-mode trajectory JSON.

    python3 tools/sweep_digest.py [--seed N]

Runs every policy that needs no model on one instance of each family at the
``tiny`` and ``small`` presets.  Two checkouts that print the same lines
produced byte-identical trajectories on this sweep, which is the check a
refactor that must not change behaviour is held to: run it on both and diff
the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cutplane.engine import RunConfig, run_policy, trajectory_to_dict  # noqa: E402
from cutplane.instances import FAMILIES, InstanceSpec, generate  # noqa: E402
from cutplane.policies import ADDITION_KINDS, NEURAL, REMOVAL_KINDS, REMOVE_NEURAL  # noqa: E402

PRESETS = ("tiny", "small")
POLICIES = [p for p in ADDITION_KINDS + REMOVAL_KINDS if p not in (NEURAL, REMOVE_NEURAL)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="instance and policy seed")
    args = parser.parse_args(argv)
    for family in FAMILIES:
        for preset in PRESETS:
            spec = InstanceSpec(family, preset, args.seed)
            lp = generate(spec)
            for policy in POLICIES:
                traj = run_policy(lp, policy, RunConfig(seed=args.seed, record_scores=True),
                                  instance_id=spec.instance_id)
                blob = json.dumps(trajectory_to_dict(traj), sort_keys=True).encode()
                print(f"{family} {preset} {policy} {hashlib.sha256(blob).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
