"""The alternating-pairs runner, ``tools/ab_bench.py``, judges stand-in runs.

A real comparison takes minutes of benchmark runs, so these tests hand its
summary stand-in records, one value per side and pair.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SPEC = {"end_to_end": [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def _runner():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload, parent, change, failed=(0, 0), wall=(30.0, 30.0)):
    """Records as ``run_once`` returns them: pair i holds parent[i] and
    change[i] items per second, and the time per item they imply; every
    run of a side took ``wall`` seconds, or wall[side][i] when it is a
    pair of lists."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, rate, bad, took in (("parent", p, failed[0], wall[0]), ("change", c, failed[1], wall[1])):
            metrics = {"items_per_s": {"value": rate, "unit": "1/s"},
                       "item_p50_ms": {"value": 1e3 / rate, "unit": "ms"}}
            runs.append({"workload": workload, "pair": i, "side": side, "failed": bad,
                         "attempted": 100, "wall_s": took[i] if isinstance(took, list) else took,
                         "metrics": metrics})
    return runs


def test_a_clear_gain_is_called_a_gain_in_both_directions():
    ab = _runner()
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [v * 1.08 for v in parent]
    rows = ab.summarize(_runs("w", parent, change, failed=(0, 2)), _SPEC)["w"]
    for name in ("items_per_s", "item_p50_ms"):
        assert rows[name]["verdict"] == "gain" and rows[name]["wins"] == 10
    assert rows["items_per_s"]["parent"]["median"] == 100
    assert rows["items_per_s"]["change_pct"] == pytest.approx(8.0)
    assert rows["failed"] == {"parent": 0, "change": 20}


def test_eight_wins_in_ten_is_no_gain():
    ab = _runner()
    parent = [100] * 10
    change = [110] * 8 + [90, 100]  # the tie counts for neither side
    row = ab.summarize(_runs("w", parent, change), _SPEC)["w"]["items_per_s"]
    assert (row["wins"], row["losses"]) == (8, 1)
    assert row["verdict"] == "within bound"


def test_a_loss_beyond_the_bound_and_a_spread_beyond_it():
    ab = _runner()
    parent = [100] * 10
    rows = ab.summarize(_runs("w", parent, [70] * 10), _SPEC)["w"]
    assert rows["items_per_s"]["verdict"] == "beyond bound"
    # a parent whose quartiles lie further apart than the bound cannot tell
    # a small loss from noise
    wide = [60, 140] * 5
    row = ab.summarize(_runs("w", wide, [95] * 10), _SPEC)["w"]["items_per_s"]
    assert row["parent"]["q3"] - row["parent"]["q1"] > 25
    assert row["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    row = ab.summarize(_runs("w", [60, 61] * 5, [150, 300] * 5), _SPEC)["w"]["items_per_s"]
    assert row["verdict"] == "gain"
    # here the parent's quartiles are further apart than the medians, so
    # four wins in four are no gain
    row = ab.verdict([60, 100, 140, 141], [142, 150, 145, 500], "higher", 0.25)
    assert row["wins"] == 4 and row["verdict"] == "within bound"


def test_workloads_are_summarized_apart_and_unpaired_runs_are_left_out():
    ab = _runner()
    runs = _runs("a", [100, 100], [130, 131]) + _runs("b", [100, 100, 100], [99, 100, 101])
    runs = runs[:-1]  # the last pair of b lost its change run
    summary = ab.summarize(runs, _SPEC)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["items_per_s"]["pairs"] == 2
    assert summary["b"]["items_per_s"]["pairs"] == 2
    assert summary["b"]["items_per_s"]["verdict"] == "within bound"
    text = ab.report(summary)
    # two wins in two pairs are too few pairs for a gain
    assert "a: failed items parent 0, change 0" in text and "wins 2/2  within bound" in text
    with pytest.raises(ValueError):
        ab.verdict([], [], "higher", 0.25)


def test_each_side_reports_its_median_wall_time():
    ab = _runner()
    parent_wall = [36.1, 36.6, 36.3, 50.0, 36.2]
    change_wall = [40.3, 39.9, 40.6, 40.1, 90.0]
    runs = _runs("w", [100] * 5, [110] * 5, wall=(parent_wall, change_wall))
    rows = ab.summarize(runs, _SPEC)["w"]
    # a median, so one slow run a side does not move it
    assert rows["wall_s"] == {"parent": 36.3, "change": 40.3}
    lines = ab.report({"w": rows}).splitlines()
    assert lines[1] == "  wall_s       parent 36.3  change 40.3  (median run)"
    # the wall time is no metric: it gets no verdict line of its own
    assert sum("wall_s" in line for line in lines) == 1
