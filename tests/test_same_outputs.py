"""Smoke test of scripts/same_outputs.py: the outputs of two imports of the
package, compared and timed operation by operation on the benchmark's
workloads."""

import dataclasses
import math
import time

import pytest

from conftest import ROOT, load_script

same_outputs = load_script("same_outputs")


@pytest.fixture(scope="module")
def packages():
    return {side: same_outputs.load(ROOT / "src", f"same_smoke_{side}") for side in ("base", "new")}


TIMING = {"ops", "ratio_median", "ratio_q1", "ratio_q3", "new_wins", "base_cpu_s", "new_cpu_s", "kinds"}


def test_the_two_loads_are_distinct_module_trees(packages):
    assert packages["base"] is not packages["new"]
    assert packages["base"].scenario_one is not packages["new"].scenario_one
    assert packages["base"].ChannelParams is not packages["new"].ChannelParams


def test_the_working_tree_against_itself_on_two_operations(packages):
    report = same_outputs.compare(packages, 2)
    timing = report.pop("timing")
    assert list(timing) == ["points"] and set(timing["points"]) == TIMING
    gaps = report.pop("largest_gaps")
    assert report == {
        "compared": 2, "differ": 0, "differ_by_workload": {}, "only_rho_or_binding": 0,
        "largest_change": None, "largest_rho_change": None, "first_differing": [],
        "bound_rises": dict.fromkeys(("ub1", "ub2", "lb1", "lb2")),
        "bound_falls": dict.fromkeys(("ub1", "ub2", "lb1", "lb2"))}
    # the same extremes on both sides, each at one of the two points
    assert gaps["base"] == gaps["new"]
    assert list(gaps["new"]) == ["lb1 - ub1", "lb2 - ub2", "ub2 - ub1", "lb2 - lb1"]
    assert all(gap["workload"] == "points" and gap["index"] in (0, 1) for gap in gaps["new"].values())
    assert all(gap["value"] <= 1e-12 for gap in gaps["new"].values())


def test_a_kind_of_two_operations_is_timed_again_until_it_has_twenty_ratios(packages):
    # no assertion on the ratios' values: the host's speed decides them
    timing = same_outputs.compare(packages, 2)["timing"]["points"]
    assert (timing["ops"], timing["new_wins"] in (0, 1, 2)) == (2, True)
    assert timing["ratio_q1"] <= timing["ratio_median"] <= timing["ratio_q3"]
    assert timing["base_cpu_s"] > 0.0 and timing["new_cpu_s"] > 0.0
    assert list(timing["kinds"]) == ["point"]
    assert (timing["kinds"]["point"]["ops"], timing["kinds"]["point"]["ratios"]) == (2, 20)
    assert timing["kinds"]["point"]["ratio_median"] > 0.0
    # the headline median is taken over all 20 ratios, the repeats included
    assert timing["ratio_median"] == timing["kinds"]["point"]["ratio_median"]


def test_a_kind_of_twenty_operations_is_timed_once_each(packages):
    timing = same_outputs.compare(packages, same_outputs.KIND_RATIOS)["timing"]["points"]
    assert timing["ops"] == timing["kinds"]["point"]["ops"] == timing["kinds"]["point"]["ratios"] == 20
    assert timing["kinds"]["point"]["ratio_median"] == timing["ratio_median"]


def test_a_new_version_that_spins_two_milliseconds_reads_slower(packages, monkeypatch):
    # a point costs both versions about 1 ms, so the new one's 2 ms more
    # take the ratio to about 3
    module = packages["new"].scenario_one
    bounds = module.bounds

    def spun(params, budget):
        out = bounds(params, budget)
        start = time.process_time()
        while time.process_time() - start < 0.002:
            pass
        return out

    monkeypatch.setattr(module, "bounds", spun)
    report = same_outputs.compare(packages, same_outputs.KIND_RATIOS)
    assert report["differ"] == 0
    assert report["timing"]["points"]["ratio_median"] > 2.0


def test_an_upper_bound_an_ulp_lower_is_a_fall_of_it(packages, monkeypatch):
    # the new scenario 1 reports its upper bound one float lower on every point
    module = packages["new"].scenario_one
    bounds = module.bounds

    def lowered(params, budget):
        out = bounds(params, budget)
        return dataclasses.replace(out, upper=dataclasses.replace(
            out.upper, value=math.nextafter(out.upper.value, -math.inf)))

    monkeypatch.setattr(module, "bounds", lowered)
    report = same_outputs.compare(packages, 2)
    assert report["bound_rises"] == dict.fromkeys(("ub1", "ub2", "lb1", "lb2"))
    fall = report["bound_falls"].pop("ub1")
    assert report["bound_falls"] == dict.fromkeys(("ub2", "lb1", "lb2"))
    assert (fall["workload"], fall["seed"]) == ("points", 101) and fall["index"] in (0, 1)
    assert -1e-15 < fall["value"] < 0.0
    # so ub2 - ub1 is larger on the new side
    assert report["largest_gaps"]["new"]["ub2 - ub1"]["value"] > report["largest_gaps"]["base"]["ub2 - ub1"]["value"]


def test_a_moved_rho_and_a_moved_value_are_told_apart(packages, monkeypatch):
    # the new scenario 2 reports lower_df's rho a float higher on every
    # point, and its upper value 1e-15 higher on every point but the first
    # (the first it sees: the warm-up runs the first point)
    module = packages["new"].scenario_two
    bounds, first = module.bounds, []

    def moved(params, budget):
        out = bounds(params, budget)
        first[:] = first or [params]
        df = dataclasses.replace(out.lower_df, rho=math.nextafter(out.lower_df.rho, math.inf))
        upper = dataclasses.replace(out.upper, value=out.upper.value + 1e-15) if params != first[0] else out.upper
        return dataclasses.replace(out, lower_df=df, upper=upper)

    monkeypatch.setattr(module, "bounds", moved)
    report = same_outputs.compare(packages, 2)
    assert (report["compared"], report["differ"], report["differ_by_workload"]) == (2, 2, {"points": 2})
    assert report["only_rho_or_binding"] == 1
    assert report["largest_change"]["field"] == "1.upper.value"
    assert report["largest_change"]["change"] == pytest.approx(1e-15, rel=0.2)
    assert report["largest_change"]["index"] == 1
    assert report["largest_rho_change"]["field"] == "1.lower_df.rho"
    assert 0.0 < report["largest_rho_change"]["change"] < 1e-15


def test_the_startup_block_times_each_side_alike(monkeypatch):
    # no assertion on the ratio's value: the host's speed decides it
    monkeypatch.setattr(same_outputs, "STARTS", 2)
    block = same_outputs.startup({"base": ROOT / "src", "new": ROOT / "src"})
    assert list(block) == ["starts", "base", "new", "ratio_median"] and block["starts"] == 2
    for side in ("base", "new"):
        assert set(block[side]) == {"median_ms", "q1_ms", "q3_ms"}
        assert 0.0 < block[side]["q1_ms"] <= block[side]["median_ms"] <= block[side]["q3_ms"]
    assert block["ratio_median"] == block["new"]["median_ms"] / block["base"]["median_ms"]


def test_the_edge_corpus_is_a_fixed_draw_of_valid_channels(packages):
    calls = same_outputs.edges_corpus()
    assert len(calls) == same_outputs.EDGES == 10_000 and calls == same_outputs.edges_corpus()
    for i, call in enumerate(calls):
        p1, p2, c1, c2, g = dataclasses.astuple(packages["new"].ChannelParams(*call["params"]))
        assert 1e-12 <= p1 <= 1e15 and 0.0 <= g < 0.99 * (1.0 + 1e-15) and max(c1, c2) <= 10.0 ** 0.7
        assert -1.0 <= call["lo"] <= call["hi"] <= 1.0 and 0.0 <= call["r_prime"] <= 10.0
        assert i % 5 or 1.0 + 1e-12 * (1.0 - 1e-9) <= p2 / p1 <= 1.1 * (1.0 + 1e-15)
    assert {(call["lo"], call["hi"]) for call in calls[:3]} == {(-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)}


def test_an_edge_operation_is_a_link_interval_and_a_budget_cap(packages):
    for call in same_outputs.edges_corpus()[:200]:
        interval, cap = same_outputs._link_and_cap(packages["new"], call)
        assert interval is None or call["lo"] <= interval[0] <= interval[1] <= call["hi"]
        assert cap is None or -1.0 <= cap <= 1.0


def test_a_binding_is_one_leaf_and_a_changed_shape_no_number():
    report = same_outputs._moves({"binding": ("f1", "f2"), "rho": 0.5}, {"binding": ("f1",), "rho": 0.25})
    assert report == [(("binding",), None), (("rho",), 0.25)]
    assert same_outputs._moves([1.0], [1.0, 2.0]) == [((), None)]
