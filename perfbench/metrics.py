"""Turning timed passes and spans into the metrics listed in METRICS.md."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import END, INFO, NAME, PARENT, START, self_times

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Counts that depend only on the inputs; traced runs of one seed must agree on them.
DETERMINISTIC = (
    "lp.solve.calls", "gomory.cutpool.calls", "gomory.cutpool.cuts",
    "policies.add_lookahead.calls", "policies.add_lookahead.solves",
    "policies.remove_lookahead.calls", "policies.remove_lookahead.solves",
    "oracle.ilp.calls", "oracle.ilp.nodes", "features.encode.cuts", "model.forward.calls",
    "engine.iters", "model.dataset.samples",
)

_SUFFIX_UNITS = {"us_p50": "us", "rows_mean": "rows", "yield": "ratio", "zero_frac": "ratio",
                 "overhead_frac": "ratio", "igc_final": "ratio", "nodes_per_s": "1/s"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in _SUFFIX_UNITS:
        return _SUFFIX_UNITS[suffix]
    return "s" if suffix.endswith(("_s", "s_p50", "s_tail")) else "count"


# Time of a traced pass that may fall outside every span: a share of the pass
# plus a fixed allowance for start-up that does not grow with the pass (the
# CLI's argument parsing and logging set-up, about 25 ms on a tiny pass).  On
# the seed code it is about 0.1% of a full pass on both workloads; more means
# work has moved out of the layer functions the spans wrap.
MAX_OTHER_FRAC = 0.02
OTHER_ALLOWANCE_S = 0.1


class CoverageError(RuntimeError):
    """The spans miss more of a traced pass than the limits above allow."""


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is
    returned; the caller reports the sample count next to it.
    """
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    for p in TAIL_PERCENTILES:
        if n * (1000 - round(p * 10)) >= 10_000:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass of ``wall`` seconds.

    Spans nest (they come from a call stack), so the self times add up to the
    time the outermost spans cover; the rest of the pass is ``trace.other_s``.
    Raises :class:`CoverageError` when that rest exceeds MAX_OTHER_FRAC of the
    pass plus OTHER_ALLOWANCE_S.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def calls(name):
        return len(by_name[name])

    def self_s(*names):
        return float(sum(selfs[i] for name in names for i in by_name[name]))

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def total(name, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in by_name[name])

    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    if wall - covered > MAX_OTHER_FRAC * wall + OTHER_ALLOWANCE_S:
        raise CoverageError(f"spans cover {covered:.6f}s of a {wall:.6f}s traced pass; "
                            "too much of it lies outside every layer")

    lp_d = durations("lp.solve")
    lp_rows = [(spans[i][INFO] or {}).get("rows") for i in by_name["lp.solve"]]
    lp_rows = [r for r in lp_rows if r is not None]
    cap_hits = sum((spans[i][INFO] or {}).get("error") == "CycleLimitExceeded"
                   for i in by_name["lp.solve"])
    frac_rows = total("gomory.cutpool", "frac_rows")
    rm_solves = total("policies.remove_lookahead", "solves")
    ilp_d = durations("oracle.ilp")
    ilp_nodes = total("oracle.ilp", "nodes")
    epochs = total("model.train", "epochs")
    return {
        "lp.solve.calls": calls("lp.solve"),
        "lp.solve.self_s": self_s("lp.solve"),
        "lp.solve.us_p50": median(lp_d) * 1e6,
        "lp.solve.rows_mean": float(np.mean(lp_rows)) if lp_rows else 0.0,
        "lp.solve.cap_hits": cap_hits,
        "gomory.cutpool.calls": calls("gomory.cutpool"),
        "gomory.cutpool.self_s": self_s("gomory.cutpool"),
        "gomory.cutpool.cuts": total("gomory.cutpool", "cuts"),
        "gomory.cutpool.yield": total("gomory.cutpool", "cuts") / frac_rows if frac_rows else 0.0,
        "policies.add_lookahead.calls": calls("policies.add_lookahead"),
        "policies.add_lookahead.self_s": self_s("policies.add_lookahead"),
        "policies.add_lookahead.solves": total("policies.add_lookahead", "solves"),
        "policies.remove_lookahead.calls": calls("policies.remove_lookahead"),
        "policies.remove_lookahead.self_s": self_s("policies.remove_lookahead"),
        "policies.remove_lookahead.solves": rm_solves,
        "policies.remove_lookahead.zero_frac":
            total("policies.remove_lookahead", "zeros") / rm_solves if rm_solves else 0.0,
        "oracle.ilp.calls": calls("oracle.ilp"),
        "oracle.ilp.self_s": self_s("oracle.ilp"),
        "oracle.ilp.nodes": ilp_nodes,
        "oracle.ilp.nodes_per_s": ilp_nodes / sum(ilp_d) if ilp_d else 0.0,
        "oracle.ilp.s_p50": median(ilp_d),
        "oracle.ilp.s_tail": tail(ilp_d)[1],
        "features.encode.cuts": total("features.encode", "cuts"),
        "features.encode.self_s": self_s("features.encode"),
        "model.forward.calls": calls("model.forward"),
        "model.forward.self_s": self_s("model.forward"),
        "model.train.self_s": self_s("model.train"),
        "model.train.epochs": epochs,
        "model.train.epoch_s": sum(durations("model.train")) / epochs if epochs else 0.0,
        "model.dataset.samples": total("model.dataset", "samples"),
        "model.dataset.self_s": self_s("model.dataset"),
        "engine.iters": total("engine.loop", "iters"),
        "engine.self_s": self_s("engine.loop"),
        "instances.generate.self_s": self_s("instances.generate"),
        "cli.self_s": self_s("cli.command"),
        "trace.other_s": wall - covered,
    }
