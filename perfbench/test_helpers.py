"""Tests of the benchmark's own helpers. Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
import types

import pytest

import procs
import stats
import tracing


# -- percentiles ----------------------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("count, expected", [
    (19, 0.0),     # even the median lacks 10 samples beyond it
    (20, 50.0),
    (99, 75.0),    # p90 would leave 9 beyond
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected:
        assert stats.beyond(count, expected) >= stats.MIN_BEYOND


def test_summary_reports_count_and_counts_failures_as_misses():
    values = [1.0] * 90 + [float("inf")] * 10
    summary = stats.summarize(values)
    assert summary["n"] == 100
    assert summary["p50"] == 1.0
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == 1.0
    summary = stats.summarize([1.0] * 89 + [float("inf")] * 11)
    assert math.isinf(summary["tail"])


def test_unsupported_percentile_is_refused():
    with pytest.raises(ValueError, match="p90 needs 10 samples"):
        stats.supported_percentile([1.0] * 99, 90)
    assert stats.supported_percentile([1.0] * 100, 90) == 1.0


def test_best_of_is_taken_item_by_item():
    assert stats.best_of([[3.0, 1.0], [2.0, 5.0], [4.0, 4.0]]) == [2.0, 1.0]
    assert stats.sum_of_best({"a": [1.0, 3.0, 2.0], "b": [10.0]}) == 11.0


# -- teardown -------------------------------------------------------------

_ORPHANING_PARENT = (
    "import subprocess, sys\n"
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
)


def test_teardown_catches_a_deliberately_orphaned_child(tmp_path):
    # The session leader exits at once; its child lives on, reparented
    # but still in the leader's process group.
    leader = procs.start([sys.executable, "-c", _ORPHANING_PARENT], env=None,
                         log_path=str(tmp_path / "log"), cwd=str(tmp_path))
    try:
        leader.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not procs.group_members(leader.pid):
            assert time.monotonic() < deadline, "the orphan never appeared"
            time.sleep(0.05)
        with pytest.raises(procs.LeftoverProcess):
            procs.check_group_gone(leader.pid, "orphan test")
        outcome = procs.stop(leader, drain_seconds=1.0, kill_seconds=5.0)
        assert outcome["graceful"] is False
        assert procs.group_members(leader.pid) == []
    finally:
        try:
            os.killpg(leader.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_graceful_stop_of_a_lone_child(tmp_path):
    child = procs.start([sys.executable, "-c", "import time; time.sleep(60)"],
                        env=None, log_path=str(tmp_path / "log"),
                        cwd=str(tmp_path))
    outcome = procs.stop(child, drain_seconds=10.0)
    assert outcome["graceful"] is True
    assert procs.group_members(child.pid) == []
    assert child.returncode is not None


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        (1, "a", 0.0, 10.0, 0, 7),
        (2, "b", 1.0, 4.0, 1, 7),
        (3, "c", 5.0, 9.0, 1, 7),
        (4, "d", 6.0, 8.0, 3, 7),
        (5, "b", 11.0, 12.0, 0, 0),
    ]
    own = tracing.self_times(spans)
    assert own["a"] == {"count": 1, "total": 10.0, "self": 3.0}
    assert own["b"] == {"count": 2, "total": 4.0, "self": 4.0}
    assert own["c"]["self"] == 2.0
    assert own["d"]["self"] == 2.0
    # Self times partition the covered time.
    assert sum(v["self"] for v in own.values()) == 11.0
    assert tracing.unattributed(spans, wall_seconds=15.0) == 4.0


def test_tracer_nests_spans_and_inherits_request_ids():
    module = types.ModuleType("fake")
    module.inner = lambda: time.sleep(0.001)

    def outer():
        module.inner()
        module.inner()

    module.outer = outer
    tracer = tracing.Tracer()
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    with tracer.span("request", request=42):
        module.outer()
    tracer.unwrap_all()
    assert not tracer.installed
    assert module.outer is outer
    spans = {span[0]: span for span in tracer.drain()}
    by_name = {}
    for span in spans.values():
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["request"]
    (middle,) = by_name["layer.outer"]
    assert middle[4] == root[0]
    assert [s[4] for s in by_name["layer.inner"]] == [middle[0], middle[0]]
    assert {s[5] for s in spans.values()} == {42}
    own = tracing.self_times(spans.values())
    inner = own["layer.inner"]["total"]
    assert own["layer.outer"]["self"] == pytest.approx(
        own["layer.outer"]["total"] - inner
    )


def test_missing_entry_point_fails_loudly():
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="no longer exists"):
        tracer.wrap(types.ModuleType("fake"), "parse", "ptx.parse")
    with pytest.raises(tracing.TraceError, match="ptx.parse"):
        tracing.require([(1, "api.launch", 0.0, 1.0, 0, 0)],
                        ["api.launch", "ptx.parse"], "a pass")


def test_spans_round_trip_through_a_file(tmp_path):
    spans = [(1, "a", 0.5, 1.5, 0, 3), (2, "b", 0.75, 1.0, 1, 3)]
    path = str(tmp_path / "spans.npz")
    tracing.save(path, spans)
    assert tracing.load(path) == spans


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    import shutil
    from pathlib import Path

    here = Path(__file__).resolve().parent
    copy = tmp_path / "perfbench"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
