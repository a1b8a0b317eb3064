"""Smoke test of scripts/same_outputs.py: the outputs of two imports of the
package, compared operation by operation on the benchmark's workloads."""

import dataclasses
import math

import pytest

from conftest import ROOT, load_script

same_outputs = load_script("same_outputs")


@pytest.fixture(scope="module")
def packages():
    return {side: same_outputs.load(ROOT / "src", f"same_smoke_{side}") for side in ("base", "new")}


def test_the_working_tree_against_itself_on_two_operations(packages):
    assert packages["base"].scenario_one is not packages["new"].scenario_one
    report = same_outputs.compare(packages, 2)
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
    # point, and its upper value 1e-15 higher from the second point on
    module = packages["new"].scenario_two
    bounds, calls = module.bounds, []

    def moved(params, budget):
        out = bounds(params, budget)
        calls.append(None)
        df = dataclasses.replace(out.lower_df, rho=math.nextafter(out.lower_df.rho, math.inf))
        upper = dataclasses.replace(out.upper, value=out.upper.value + 1e-15) if len(calls) > 1 else out.upper
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


def test_a_binding_is_one_leaf_and_a_changed_shape_no_number():
    report = same_outputs._moves({"binding": ("f1", "f2"), "rho": 0.5}, {"binding": ("f1",), "rho": 0.25})
    assert report == [(("binding",), None), (("rho",), 0.25)]
    assert same_outputs._moves([1.0], [1.0, 2.0]) == [((), None)]
