"""Tests for the benchmark's metric helpers.

Run from the repository root with ``python -m pytest perfbench``.
"""

import math
import pathlib

import pytest

from stats import (
    fail_share,
    gmean,
    nearest_rank,
    tail,
    tail_percentile,
)


def test_gmean_matches_closed_form():
    assert gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert gmean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert gmean([3.5]) == pytest.approx(3.5)


@pytest.mark.parametrize("values", [[], [1.0, 0.0], [2.0, -1.0]])
def test_gmean_rejects_empty_and_non_positive(values):
    with pytest.raises(ValueError):
        gmean(values)


@pytest.mark.parametrize("count", [11, 12, 20, 36, 99, 100, 1234, 2000, 10**5])
def test_tail_leaves_at_least_ten_beyond(count):
    percentile = tail_percentile(count)
    rank = math.ceil(percentile * count / 100.0 - 1e-9)
    assert count - rank >= 10
    # The next 0.1 step up would leave fewer than ten beyond.
    higher = round(percentile + 0.1, 1)
    assert count - math.ceil(higher * count / 100.0 - 1e-9) < 10


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(count):
    assert tail_percentile(count) is None
    assert tail(range(1, count + 1)) == (None, None)


def test_tail_value_on_known_samples():
    values = list(range(1, 101))  # 1..100
    percentile, value = tail(values)
    assert percentile == 90.0
    assert value == 90
    assert sum(1 for v in values if v > value) == 10
    assert tail([float(v) for v in range(2000)]) == (99.5, 1989.0)


def test_nearest_rank_edges():
    assert nearest_rank([5, 1, 3], 50) == 3
    assert nearest_rank([5, 1, 3], 0) == 1
    assert nearest_rank([5, 1, 3], 100) == 5


def test_fail_share_counts_shed_and_timeouts_against_attempts():
    assert fail_share(10) == 0.0
    assert fail_share(10, failed=1, shed=2, timed_out=1) == pytest.approx(0.4)
    assert fail_share(4, rejected=1) == pytest.approx(0.25)
    assert fail_share(3, shed=3) == 1.0


@pytest.mark.parametrize("args", [(0,), (2, 3), (1, 1, 1)])
def test_fail_share_rejects_impossible_counts(args):
    with pytest.raises(ValueError):
        fail_share(*args)


def _span(path, duration, **attrs):
    parts = path.split(" > ")
    return {
        "type": "span", "name": parts[-1], "path": path,
        "parent": " > ".join(parts[:-1]) or None, "t_s": 0.0,
        "duration_s": duration, "attrs": attrs,
    }


def test_flow_layers_partition_self_times():
    from layers import FLOW_TIME_LAYERS, flow_layers

    a1 = "flow > phase2 > algorithm1"
    records = [
        _span("flow > phase1 > place_baseline > anneal", 0.9,
              moves_proposed=40),
        _span("flow > phase1 > place_baseline", 1.0),
        _span(f"{a1} > binary_search > lp_probe > solver", 2.0, nodes=3),
        _span(f"{a1} > binary_search > lp_probe > milp_restamp", 0.5),
        _span(f"{a1} > binary_search > lp_probe", 2.6),
        _span(f"{a1} > binary_search", 3.0),
        _span(f"{a1} > iteration > milp_solve > ilp_fix > solver", 4.0,
              nodes=5, gap=0.25, limit_reason="time_limit"),
        _span(f"{a1} > iteration > explain_iis > solver", 0.7),
        _span(f"{a1} > iteration > explain_iis", 0.8),
        _span(f"{a1} > iteration > sta_verify", 0.1),
        _span(f"{a1} > iteration", 5.5),
        _span(a1, 9.0),
        _span("flow > phase2", 9.0),
        _span("flow", 10.0),
    ]
    out = flow_layers(records)
    assert out["place.busy_s"] == pytest.approx(1.0)
    assert out["place.anneal_moves"] == 40
    assert out["solver.lp_s"] == pytest.approx(2.0)
    assert out["solver.ilp_s"] == pytest.approx(4.0)
    assert out["solver.calls"] == 2  # the IIS solve counts as explain
    assert out["solver.nodes"] == 8
    assert out["solver.limit_hits.time_limit"] == 1
    assert out["solver.max_gap"] == pytest.approx(0.25)
    assert out["targets.solves"] == 1
    assert out["milp.build_s"] == pytest.approx(0.5)
    assert out["explain.busy_s"] == pytest.approx(0.8)
    assert out["timing.busy_s"] == pytest.approx(0.1)
    assert out["targets.busy_s"] == pytest.approx(3.0 - 2.0 - 0.5)
    assert out["alg1.busy_s"] == pytest.approx(9.0 - 3.0 - 4.0 - 0.8 - 0.1)
    covered = sum(out[key] for key in FLOW_TIME_LAYERS)
    assert covered == pytest.approx(10.0)


def test_phase_count_is_whole_laps_of_the_pool():
    from pools import phase_count

    assert phase_count(20, 80, 10) == 1600
    assert phase_count(25, 1.6, 32) == 32
    assert phase_count(40, 1.6, 32) == 64
    for seconds in (0.01, 1, 7.3, 20, 45):
        count = phase_count(seconds, 80, 10)
        assert count >= 10 and count % 10 == 0
    assert phase_count(0.01, 80, 10) == 10


def test_hit_stream_sends_seeded_laps():
    from itertools import islice

    from pools import hit_stream

    pool = [{"labels": {"name": str(i)}} for i in range(10)]
    drawn = list(islice(hit_stream(pool, seed=3), 30))
    for lap in range(3):
        assert sorted(drawn[10 * lap:10 * lap + 10], key=id) == sorted(pool, key=id)
    assert drawn == list(islice(hit_stream(pool, seed=3), 30))
    assert drawn != list(islice(hit_stream(pool, seed=4), 30))


def test_miss_laps_send_largest_fabrics_first_and_never_repeat_a_key(
    monkeypatch,
):
    from itertools import islice

    from pools import miss_pool, miss_stream

    # The pool lists the program's library kernels.
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )

    size = len(miss_pool())
    drawn = list(islice(miss_stream(seed=5), 2 * size))
    for lap in (drawn[:size], drawn[size:]):
        dims = [int(request["fabric"].split("x")[0]) for request in lap]
        assert dims == sorted(dims, reverse=True)
    keys = {
        (r["kernel"], r["fabric"], r["mode"], r["time_limit_s"]) for r in drawn
    }
    assert len(keys) == 2 * size
    assert drawn != list(islice(miss_stream(seed=6), 2 * size))


#: A fresh interpreter that adopts orphans, starts a child which leaves a
#: sleeping grandchild behind, and stops what is left.
_ORPHAN_SCRIPT = """
import subprocess, sys
import host
host.adopt_orphans()
sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
child = subprocess.run([sys.executable, "-c",
    "import subprocess, sys; print(subprocess.Popen(%r, "
    "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)" % sleeper],
    capture_output=True, text=True, check=True)
print(child.stdout.strip(), host.stop_children(), len(host._children()))
"""


def test_stop_children_reaps_orphaned_grandchildren():
    import os
    import subprocess
    import sys

    here = pathlib.Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT], cwd=here, capture_output=True,
        text=True, check=True, timeout=30,
    ).stdout.split()
    grandchild, stopped, left = (int(value) for value in out)
    assert (stopped, left) == (1, 0)
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)
