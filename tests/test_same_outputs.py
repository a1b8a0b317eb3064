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
    assert same_outputs.compare(packages, 2) == {
        "compared": 2, "differ": 0, "differ_by_workload": {}, "only_rho_or_binding": 0,
        "largest_change": None, "largest_rho_change": None, "first_differing": []}


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
