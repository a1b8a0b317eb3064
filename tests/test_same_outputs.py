"""Smoke test of scripts/same_outputs.py: the outputs of two imports of the
package, compared operation by operation on the benchmark's workloads."""

from conftest import ROOT, load_script

same_outputs = load_script("same_outputs")


def test_the_working_tree_against_itself_on_two_operations():
    packages = {side: same_outputs.load(ROOT / "src", f"same_smoke_{side}") for side in ("base", "new")}
    assert packages["base"].scenario_one is not packages["new"].scenario_one
    assert same_outputs.compare(packages, 2) == {"compared": 2, "differ": 0, "first_differing": []}
