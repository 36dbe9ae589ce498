"""Fast tests of the benchmark's own arithmetic and a tiny-preset smoke of
each workload runner.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from stats import capacity, tail_percentile  # noqa: E402
from tracing import Tracer, covered, self_time  # noqa: E402


# -- span arithmetic ----------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    # Children [1,4] and [3,6] overlap on [3,4]; [8,12] reaches past the
    # parent's end and is clipped to [8,10]. Covered: 5 + 2 = 7.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0


def test_self_time_nested_and_disjoint_children():
    assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 4.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert covered([(5.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 2.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_tracer_self_time_matches_interval_arithmetic():
    # parent [0, 10] with children [1, 3] and [4, 9]; the second child has
    # its own child [5, 6].
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 9, 10]))
    tracer.enter("parent")
    tracer.enter("child")
    tracer.exit(hit=True)
    tracer.enter("child")
    tracer.enter("grandchild")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.calls("child") == 2
    assert tracer.inclusive("child") == 7.0
    assert tracer.self_seconds("child") == 6.0
    assert tracer.hit_share("child") == 0.5
    assert tracer.self_seconds("parent") == self_time(0, 10, [(1, 3), (4, 9)])
    assert tracer.roots == [("parent", 0, 10)]


def test_absorb_sums_another_process_export():
    a = Tracer(clock=FakeClock([0, 2]))
    a.enter("x")
    a.exit()
    b = Tracer(clock=FakeClock([5, 6]))
    b.enter("x")
    b.exit(hit=True)
    a.absorb(json.loads(json.dumps(b.export())))
    assert a.calls("x") == 2 and a.inclusive("x") == 3.0
    assert a.hit_share("x") == 0.5
    assert [tuple(r) for r in a.roots] == [("x", 0, 2), ("x", 5, 6)]


# -- the percentile rule -------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))  # 1..1000
    assert tail_percentile(values, 0.99) == (0.99, 990)


def test_p99_falls_back_to_the_highest_supported_percentile():
    values = list(range(1, 501))  # 500 samples: p99 would leave only 5 beyond
    fraction, value = tail_percentile(values, 0.99)
    assert fraction == 0.98 and value == 490
    assert sum(v > value for v in values) == 10


def test_percentile_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10, 0.99) == (None, None)
    assert tail_percentile([float(v) for v in range(11)], 0.5) == (1 / 11, 0.0)


def test_median_percentile_is_unaffected_by_the_rule():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values, 0.5) == (0.5, 50.0)


# -- the capacity (backlog) rule ------------------------------------------------


def _step(rate, p99=5.0, delivered=None, failed=0):
    return {
        "rate": rate,
        "p99_ms": p99,
        "delivered_rate": rate if delivered is None else delivered,
        "failed": failed,
    }


def test_capacity_is_highest_step_meeting_limit_without_backlog():
    steps = [_step(250), _step(500, delivered=491.0), _step(1000, delivered=975.0)]
    # 491/500 is within 2%; 975/1000 is a growing backlog.
    assert capacity(steps) == 500.0


def test_capacity_rejects_slow_tail_and_failures():
    assert capacity([_step(250, p99=50.0), _step(500, p99=50.1)]) == 250.0
    assert capacity([_step(250, failed=1)]) == 0.0
    assert capacity([_step(250, p99=None)]) == 0.0


# -- tiny-preset smoke of each workload runner ---------------------------------


def _simwork(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "simwork.py"), *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sim-default", "sim-hybrid"])
def test_sim_runner_smoke(workload, tmp_path):
    timed = _simwork("run", workload, "3", "timed", str(tmp_path), "tiny")
    plain = _simwork("run", workload, "3", "check", str(tmp_path), "tiny")
    traced = _simwork("run", workload, "3", "traced", str(tmp_path), "tiny")
    for rep in (timed, plain, traced):
        assert all(rep["checks"].values()), rep["checks"]
    assert "store_digest" not in timed["counters"]
    assert plain["counters"] == traced["counters"]
    assert timed["counters"] == {
        k: v for k, v in plain["counters"].items() if k != "store_digest"
    }
    assert plain["msgs_per_s"] > 0 and plain["peak_rss_mb"] > 0
    layers = traced["layers"]
    assert layers["workload.plan.s"] > 0
    assert layers["core.inbound.self_s"] > 0
    assert 0.0 <= layers["trace.unattributed_share"] < 1.0
    if workload == "sim-hybrid":
        assert layers["net.exchange.rows"] > 0
        assert layers["core.filters.content.s"] > 0
        assert layers["experiments.shard.wall_max_s"] > 0
    else:
        assert layers["core.filters.content.s"] == 0.0
    assert not os.listdir(tmp_path)  # the spill directory is removed
    assert _simwork("setup", workload, "3")["setup_s"] > 0


def test_live_runner_smoke(tmp_path):
    from livework import RATES, counters, layer_metrics, run_pass, summarize

    plain = run_pass(ROOT, str(tmp_path), 3, 0.5, traced=False)
    traced = run_pass(ROOT, str(tmp_path), 3, 0.5, traced=True)
    for result in (plain, traced):
        assert all(result["checks"].values()), result["checks"]
        assert [step["rate"] for step in result["steps"]] == list(RATES)
        assert all(step["failed"] == 0 for step in result["steps"])
    # One seed fixes every message, so both passes count the same.
    assert counters(plain)[0] == counters(traced)[0]
    figures = summarize(plain)
    assert figures["setup_s"] > 0 and figures["msgs_per_s"] > 0
    assert figures["restart_s"] > 0 and figures["peak_rss_mb"] > 0
    layers = layer_metrics(plain, traced)
    assert layers["serve.wal.fsync.s"] > 0
    assert layers["serve.engine.apply.s"] > 0
    assert layers["serve.recover.records"] == traced["restart_records"] > 0
