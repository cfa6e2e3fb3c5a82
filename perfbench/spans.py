"""Spans around the program's public functions, recorded from outside the program.

The benchmark never edits ``src/``: it replaces module attributes with
wrappers for the length of a traced pass and restores them afterwards.  A
function imported by name lives in several namespaces (``lp.solve_simplex``
and ``engine.solve_simplex`` are the same function), so every namespace the
program calls it through gets a wrapper.

A span is ``[name, start, end, parent, info]``; ``parent`` indexes the span
that was open when this one started (-1 for none) and ``info`` holds the
counts read off the call's arguments and result.  Self time is a span's
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[INFO] = {"error": type(exc).__name__}
                raise
            span[END] = clock()
            stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out

        return traced


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo_p, hi_p = span[START], span[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][START], lo_p), min(spans[c][END], hi_p))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi_p - lo_p) - covered)
    return out


# ---------------------------------------------------------------------------
# what each layer's span records
# ---------------------------------------------------------------------------


def _lp_info(args, kwargs, out):
    return {"rows": args[0].num_rows}


def _cutpool_info(args, kwargs, out):
    sol = args[0]
    tol = args[3] if len(args) > 3 else kwargs.get("tol", 1e-6)
    v = np.asarray(sol.tableau.rhs, dtype=float)
    return {"cuts": len(out.cuts), "frac_rows": int(np.sum(np.abs(v - np.round(v)) > tol))}


def _add_info(args, kwargs, out):
    return {"solves": len(args[0].cuts)}


def _remove_info(args, kwargs, out):
    scores = np.asarray(out, dtype=float)
    return {"solves": len(args[0]), "zeros": int(np.sum((scores >= 0.0) & (scores <= 1e-9)))}


def _encode_many_info(args, kwargs, out):
    return {"cuts": len(args[0])}


def _encode_one_info(args, kwargs, out):
    return {"cuts": 1}


def _ilp_info(args, kwargs, out):
    return {"nodes": out.nodes_explored}


def _loop_info(args, kwargs, out):
    return {"iters": len(out.records)}


def _train_info(args, kwargs, out):
    return {"epochs": len(out[1].train_losses)}


def _dataset_info(args, kwargs, out):
    return {"samples": len(out)}


def probes(cp) -> list[tuple]:
    """(namespace, attribute, span name, info) for every layer boundary.

    ``cp`` holds the program's modules; a namespace is a module or, for the
    CLI's command table, a dict.
    """
    table = [
        (cp.lp, "solve_simplex", "lp.solve", _lp_info),
        (cp.engine, "solve_simplex", "lp.solve", _lp_info),
        (cp.engine, "generate_cutpool", "gomory.cutpool", _cutpool_info),
        (cp.engine, "run_add_only", "engine.loop", _loop_info),
        (cp.engine, "run_removal", "engine.loop", _loop_info),
        (cp.policies, "lookahead_add_scores", "policies.add_lookahead", _add_info),
        (cp.policies, "lookahead_remove_scores", "policies.remove_lookahead", _remove_info),
        (cp.policies, "encode_many", "features.encode", _encode_many_info),
        (cp.model, "encode", "features.encode", _encode_one_info),
        (cp.policies, "forward", "model.forward", None),
        (cp.cli, "solve_ilp", "oracle.ilp", _ilp_info),
        (cp.cli, "train_sgd", "model.train", _train_info),
        (cp.cli, "build_dataset", "model.dataset", _dataset_info),
        (cp.cli, "generate", "instances.generate", None),
    ]
    table += [(cp.cli.COMMANDS, key, "cli.command", None) for key in cp.cli.COMMANDS]
    return table


def _get(ns, key):
    return ns[key] if isinstance(ns, dict) else getattr(ns, key)


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


@contextmanager
def patched(replacements):
    """Install ``(namespace, attribute, wrapper_factory)`` replacements, then restore."""
    saved = []
    try:
        for ns, key, factory in replacements:
            original = _get(ns, key)
            saved.append((ns, key, original))
            _set(ns, key, factory(original))
        yield
    finally:
        for ns, key, original in reversed(saved):
            _set(ns, key, original)


def tracing(tracer: Tracer, cp):
    """Context manager that wraps every probe in ``tracer`` spans."""
    return patched([(ns, key, functools.partial(tracer.wrap, name, info=info))
                    for ns, key, name, info in probes(cp)])
