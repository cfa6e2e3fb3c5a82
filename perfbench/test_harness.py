"""Smoke test of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q

Checks the self-time arithmetic on hand-built nested spans and on spans
recorded around real calls, then runs one tiny-preset pass of every workload
in both modes and checks the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_of_nested_spans():
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7].
    s = [_span("a", 0, 10, -1), _span("b", 1, 4, 0), _span("c", 5, 9, 0), _span("d", 6, 7, 2)]
    assert spans.self_times(s) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    s = [_span("a", 0, 10, -1), _span("b", 1, 5, 0), _span("c", 3, 8, 0), _span("e", 9, 12, 0)]
    # children cover [1,8] and [9,10] of the parent: 8 of its 10 seconds.
    assert spans.self_times(s)[0] == pytest.approx(2.0)


def test_layer_metrics_account_for_the_pass():
    s = [_span("cli.command", 1, 9, -1), _span("lp.solve", 2, 3, 0),
         _span("engine.loop", 4, 8, 0), _span("lp.solve", 5, 7, 2)]
    m = metrics.layer_metrics(s, wall=8.1)
    assert m["lp.solve.calls"] == 2
    assert m["lp.solve.self_s"] == pytest.approx(3.0)
    assert m["engine.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trace.other_s"] == pytest.approx(0.1)


def test_layer_metrics_reject_a_pass_the_spans_miss():
    s = [_span("cli.command", 0, 9, -1), _span("lp.solve", 4, 6, 0)]
    with pytest.raises(metrics.CoverageError):
        metrics.layer_metrics(s, wall=10.0)


def test_tracer_records_parents_and_self_time():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_t = tracer.wrap("lp.solve", leaf)

    def outer():
        leaf_t()
        leaf_t()
        time.sleep(0.01)

    tracer.wrap("engine.loop", outer)()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["engine.loop", "lp.solve", "lp.solve"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[spans.END] - root[spans.START], abs=1e-9)
    assert selfs[0] >= 0.009


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert metrics.tail(list(range(100)))[0] == 90.0
    assert metrics.tail(list(range(1000)))[0] == 99.0
    assert metrics.tail(list(range(15)))[0] == 50.0


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    proc = _run("--workload", "heuristic-train", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
