"""Print sha256 digests of trajectories, oracle results and a tiny CLI pipeline.

    python3 tools/sweep_digest.py [--seed N]

Runs every policy on one instance of each family at the ``tiny`` and
``small`` presets; the two neural policies score with the untrained model
``init_params(seed=0)``.  The first digest covers the whole
trajectory; the second covers its decisions, the trajectory with every
record's ``pool_scores`` removed.  One more line per family and preset,
``<family> <preset> oracle <sha256>``, digests the branch-and-bound result
``solve_ilp`` gives on the instance: its status, value, node count and
integer point.  Two checkouts that print the same lines produced
byte-identical trajectories and oracle results on this sweep, which is the
check a refactor that must not change behaviour is held to: run it on both
and diff the output.  A change that recomputes look-ahead values to within rounding
shows, through the second digest, that no decision moved.  Each trajectory
is digested after a JSON round trip through the trajectory codec; the script
exits with status 1 if that round trip changes it.

Last, the CLI pipeline runs in-process in a temporary directory on packing
``tiny`` instances: gen, oracle on every role, collect, train, collect on the
test role, eval with seven policies (the two neural ones with the trained
model), analyze, and a rational-arithmetic collect.  One line per output file,
``cli <relative path> <sha256>``, digests its bytes with every config
provenance hash masked; one more line, ``cli config <hashes>``, lists the
hashes masked.  A change to the CLI's settings thus shows on that line alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cutplane import cli  # noqa: E402
from cutplane.engine import (  # noqa: E402
    RunConfig, run_policy, trajectory_from_dict, trajectory_to_dict)
from cutplane.instances import FAMILIES, InstanceSpec, generate  # noqa: E402
from cutplane.model import init_params  # noqa: E402
from cutplane.oracle import solve_ilp  # noqa: E402
from cutplane.policies import ADDITION_KINDS, REMOVAL_KINDS  # noqa: E402

PRESETS = ("tiny", "small")
POLICIES = ADDITION_KINDS + REMOVAL_KINDS

# The provenance hash as metadata lines (config=<hex>) and JSON ("config": "<hex>") hold it.
CONFIG_HASH = re.compile(rb'(config=|"config": ")([0-9a-f]{12})')
PIPELINE = (
    "gen --count 4,2,4",
    "oracle --role train,val,test",
    "collect",
    "train",
    "collect --role test --policies random,lookahead",
    "eval --policies random,mv,lookahead,neural,remove-lookahead,remove-neural,remove-random"
    " --model {out}/models/packing-tiny.json",
    "analyze",
    "collect --role test --policies mv --arith rational",
)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="instance and policy seed")
    args = parser.parse_args(argv)
    model = init_params(seed=0)
    for family in FAMILIES:
        for preset in PRESETS:
            spec = InstanceSpec(family, preset, args.seed)
            lp = generate(spec)
            for policy in POLICIES:
                traj = run_policy(lp, policy, RunConfig(seed=args.seed, record_scores=True),
                                  instance_id=spec.instance_id, model=model)
                doc = trajectory_to_dict(traj)
                back = trajectory_to_dict(trajectory_from_dict(json.loads(json.dumps(doc))))
                if back != doc:
                    print(f"{family} {preset} {policy}: trajectory changed on a JSON round trip",
                          file=sys.stderr)
                    return 1
                full = _digest(back)
                for rec in back["records"]:
                    del rec["pool_scores"]
                print(f"{family} {preset} {policy} {full} {_digest(back)}")
            res = solve_ilp(lp)
            x_int = None if res.x_int is None else res.x_int.tolist()
            print(f"{family} {preset} oracle "
                  f"{_digest([res.status, res.value, res.nodes_explored, x_int])}")
    _digest_pipeline()
    return 0


def _digest_pipeline() -> None:
    """Run PIPELINE through ``cli.main`` and print one line per output file."""
    logging.basicConfig(level=logging.WARNING)  # keeps cli.main's INFO log quiet
    hashes = set()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs"
        for step in PIPELINE:
            argv = step.format(out=out).split()
            cli.main(argv + ["--family", "packing", "--preset", "tiny", "--out", str(out)])
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            hashes.update(m.group(2).decode() for m in CONFIG_HASH.finditer(data))
            masked = CONFIG_HASH.sub(rb"\1<hash>", data)
            print(f"cli {path.relative_to(out).as_posix()} {hashlib.sha256(masked).hexdigest()}")
    print("cli config " + " ".join(sorted(hashes)))


if __name__ == "__main__":
    sys.exit(main())
