"""Smoke test of scripts/same_outputs.py: the outputs of two imports of the
package, compared operation by operation on the benchmark's workloads."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", _ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_the_working_tree_against_itself_on_two_operations():
    packages = {side: same_outputs.load(_ROOT / "src", f"same_smoke_{side}") for side in ("base", "new")}
    assert packages["base"].scenario_one is not packages["new"].scenario_one
    assert same_outputs.compare(packages, 2) == {"compared": 2, "differ": 0, "first_differing": []}
