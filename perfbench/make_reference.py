"""Rebuild reference.json: HiGHS optima of the instances that take HiGHS seconds.

    python3 perfbench/make_reference.py --seeds 0-20

Only packing ``train`` instances are cached (HiGHS needs 1-8 s for each; every
other instance solves in well under a second and is computed when a run needs
it).  Entries carry a digest of the instance data, so a changed generator
invalidates them instead of returning a wrong optimum.
"""

from __future__ import annotations

import argparse
import sys

import checks
import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range, e.g. 0-20")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    cp = run.load_program()
    refs = checks.References(run.HIGHS_REFERENCE, run.HIGHS_REFERENCE)
    for seed in range(lo, hi + 1):
        for workload in WORKLOADS.values():
            if not hasattr(workload, "mix"):
                continue
            for inst in workload.setup(cp, seed)["instances"]:
                if inst.iid.startswith("packing-train-"):
                    print(f"{inst.iid}: z* = {refs.get(inst.iid, inst.lp)[0]:g}", flush=True)
        refs.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
