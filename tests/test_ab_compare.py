"""Smoke test of scripts/ab_compare.py: two imports of the package in one
process, timed call by call on the operations of a benchmark workload."""

from conftest import ROOT, load_script

ab_compare = load_script("ab_compare")


def test_the_working_tree_against_itself_on_two_points():
    # no timing assertion: the host's speed decides the ratios
    packages = {side: ab_compare.load(ROOT / "src", f"ab_smoke_{side}") for side in ("base", "new")}
    assert packages["base"] is not packages["new"]
    assert packages["base"].scenario_one is not packages["new"].scenario_one
    assert packages["base"].ChannelParams is not packages["new"].ChannelParams
    report = ab_compare.compare(packages, "points", ops=2)
    assert set(report) == {"workload", "seed", "ops", "ratio_median", "ratio_q1", "ratio_q3", "new_wins",
                           "base_cpu_s", "new_cpu_s", "outputs_differ", "kinds"}
    assert (report["workload"], report["seed"], report["ops"], report["outputs_differ"]) == ("points", 1, 2, 0)
    assert report["new_wins"] in (0, 1, 2)
    assert report["ratio_q1"] <= report["ratio_median"] <= report["ratio_q3"]
    assert report["base_cpu_s"] > 0.0 and report["new_cpu_s"] > 0.0
    assert list(report["kinds"]) == ["point"] and report["kinds"]["point"]["ops"] == 2
    assert report["kinds"]["point"]["ratio_median"] == report["ratio_median"]
