"""Tests of the benchmark's own generators and statistics.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tcasym.asym import Params, classify_region  # noqa: E402

SEEDS = range(5)


def _region(n, alpha, re, im):
    # the dispatcher's reduction to the first quadrant is |re|, |im|
    return classify_region((re.lstrip("-"), im.lstrip("-")), n, alpha, Params(), 256)


def _pts(workload, seed, count=3):
    return [p for items in inputs.first_passes(workload, seed, count) for p in items]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["sweep", "deep"])
def test_points_classify_into_their_region_at_their_own_degree(workload, seed):
    pts = _pts(workload, seed)
    bad = [p for p in pts if _region(p[1], p[2], p[3], p[4]) != p[0]]
    assert not bad
    assert {p[0] for p in pts} == set(inputs.REGIONS)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_points_classify_at_every_degree_of_the_grid(seed):
    for tag, re, im in _pts("cold-parallel", seed):
        for n in inputs.CLI_NS:
            assert _region(n, inputs.CLI_ALPHA, re, im) == tag, (tag, re, im, n)


def test_d_points_respect_the_right_edge_of_small_degrees():
    # drawing D points from the n=1600 footprint put some of them in A at n <= 400
    for p in _pts("sweep", 0):
        if p[0] == "D":
            assert abs(float(p[3])) < inputs.k_edge(p[1], float(p[2]))


def test_points_include_reflections_and_the_real_axis():
    pts = _pts("sweep", 0, 1)
    assert any(p[3].startswith("-") for p in pts)
    assert any(p[4].startswith("-") for p in pts)
    assert any(float(p[4]) == 0 for p in pts if p[0] == "B")
    assert any(float(p[4]) == 0 for p in pts if p[0] == "origin")


@pytest.mark.parametrize("workload", ["sweep", "deep", "ortho", "cold-parallel"])
def test_same_seed_same_inputs_and_digest(workload):
    a, b = inputs.first_passes(workload, 7, 3), inputs.first_passes(workload, 7, 3)
    assert a == b
    assert inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(inputs.first_passes(workload, 8, 3)) != inputs.digest(a)


@pytest.mark.parametrize("workload", ["sweep", "deep", "ortho", "cold-parallel"])
def test_passes_never_repeat_an_input(workload):
    # a memo keyed on the inputs must not make a later pass look faster
    pts = _pts(workload, 0, 6)
    assert len(set(pts)) == len(pts)


@pytest.mark.parametrize("seed", SEEDS)
def test_deep_points_never_share_n_and_alpha(seed):
    pts = _pts("deep", seed, 6)
    assert len({(p[1], p[2]) for p in pts}) == len(pts)


def test_set_up_shares_no_degree_with_timed_points():
    degrees = {p[1] for w in ("sweep", "deep") for p in _pts(w, 0)} | set(inputs.CLI_NS)
    assert run.SETUP_N not in degrees
    alphas = {float(a) for a in _pts("ortho", 0, 6)}
    assert float(run.WARM_ALPHA) not in alphas


def test_percentile():
    assert spans.percentile([4, 1, 3, 2], 50) == 2.5
    assert spans.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert spans.percentile([1, 2, 3, 4], 0) == 1
    assert spans.percentile([1, 2, 3, 4], 100) == 4
    assert spans.percentile([5.0], 90) == 5.0
    assert spans.percentile(range(1, 101), 90) == pytest.approx(90.1)


# root [0, 10] with children a [1, 4] (holding g [2, 3]) and b [5, 9]
TOY = [
    ["harness.compare_point", 0.0, 10.0, -1, False],
    ["auxfun.h_factor", 1.0, 4.0, 0, 272],
    ["specfun.log_gamma_real", 2.0, 3.0, 1, None],
    ["auxfun.h_factor", 5.0, 9.0, 0, 272],
]


def test_self_times_and_subtree_sums():
    assert spans.self_times(TOY) == [3.0, 2.0, 1.0, 4.0]
    assert spans.subtree_self_sums(TOY) == [10.0, 3.0, 1.0, 4.0]
    assert spans.additivity_error(TOY, "harness.compare_point") == 0.0
    broken = [s[:] for s in TOY]
    broken[3][spans.END] = 12.0  # b ends after its parent
    assert spans.self_times(broken) == [2.0, 2.0, 1.0, 7.0]
    assert spans.additivity_error(broken, "harness.compare_point") == 2.0


def test_layer_metrics_on_toy_spans():
    m = spans.layer_metrics([(1, TOY, False)])
    # the first h_factor call at a precision in a process is its cold fill
    assert m["auxfun.h_factor.cold_s"] == 3.0
    assert m["auxfun.h_factor.warm_us"] == 4e6
    assert m["specfun.log_gamma_real.calls_per_point"] == 1.0
    assert m["specfun.log_gamma_real.ms"] == 1e3
    assert m["harness.compare_point.self_ms"] == 3e3
    assert m["harness.compare_point.near_zero_ratio"] == 0.0
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}
    # another process fills its own cache
    assert spans.layer_metrics([(1, TOY, False), (2, TOY, False)])["auxfun.h_factor.cold_s"] == 3.0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert tuple(m["name"] for m in bench["end_to_end"]) == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", ["sweep", "deep"])
def test_point_workloads_have_at_least_100_points(workload):
    # at least 10 latency samples lie beyond p90, even in a single pass
    assert len(inputs.first_passes(workload, 0, 1)[0]) >= 100


def test_launch_times_to_the_marker_and_keeps_the_output(tmp_path):
    r = run.Run(str(tmp_path), 0, 1, 0)
    code = "import time; print('a', flush=True); time.sleep(0.3); print('b')"
    ref, raw, stopped, out = run.launch(r, [sys.executable, "-c", code], marker="a")
    assert out.splitlines() == ["a", "b"]
    assert 0 < raw < 0.3  # the interval ends at the marker, not at exit
    assert ref > 0 and stopped >= 0
    with pytest.raises(RuntimeError):
        run.launch(r, [sys.executable, "-c", "print('b')"], marker="a")
    with pytest.raises(RuntimeError):
        run.launch(r, [sys.executable, "-c", "raise SystemExit(3)"])


def test_launch_leaves_stopped_time_out():
    r = run.Run(os.getcwd(), 0, 1, 0)
    t = time.perf_counter()
    _, raw, stopped, _ = run.launch(r, [sys.executable, "-c", "import time; time.sleep(0.5)"])
    total = time.perf_counter() - t
    assert stopped > 0  # at least one calibration sample while the child ran
    assert 0.5 - stopped <= raw < total - stopped
