"""The sweep command's no-eavesdropper columns: the bounds of the row's
channel with g = 0, computed once for all the rows of a gain sweep."""

from dataclasses import replace

import pytest

from diamond_wiretap import cli, scenario_one
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget


def _blocks(text):
    return [dict(line.split(" = ") for line in block.splitlines()) for block in text.strip().split("\n\n")]


@pytest.mark.parametrize("param, values, channel", [
    ("g", ("0", "0.6"), lambda v: ChannelParams(3.0, 3.0, 1.2, 1.2, v)),
    ("c", ("0.4", "2.2"), lambda v: ChannelParams(3.0, 3.0, v, v, 0.3)),
], ids=["gain", "capacity"])
def test_no_eavesdropper_columns_are_the_bounds_at_g_zero(param, values, channel, monkeypatch, capsys):
    fixed = {"g": ["--p", "3", "--c", "1.2"], "c": ["--p", "3", "--g", "0.3"]}[param]
    calls, bounds = [], scenario_one.bounds

    def counted(params, budget):
        calls.append(params)
        return bounds(params, budget)
    monkeypatch.setattr(scenario_one, "bounds", counted)
    argv = ["sweep", "--param", param, "--from", values[0], "--to", values[1], "--steps", "4",
            "--scenario", "1", "--format", "kv", "--rprime", "0.5", *fixed]
    assert cli.main(argv) == 0
    rows = _blocks(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        params = channel(float(row["swept_value"]))
        no_eavesdropper = bounds(replace(params, g=0.0), RandomnessBudget(0.5))
        assert row["nosecrecy_ub"] == f"{no_eavesdropper.upper.value:.10g}"
        assert row["nosecrecy_lb"] == f"{no_eavesdropper.lower:.10g}"
    # no channel is bounded twice: the rows of a gain sweep share one
    # no-eavesdropper channel, that of its first row (g = 0)
    assert len(calls) == len(set(calls)) == {"g": 4, "c": 8}[param]
