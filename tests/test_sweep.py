"""The sweep command's rows: each is what ``eval`` prints for the row's
channel, and its no-eavesdropper columns are the bounds of that channel with
g = 0, computed once for all the rows of a gain sweep.  Each row is written
as it is made, so neither a failure nor a closed stdout loses the rows
before it, and memory does not follow the number of rows."""

import contextlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from diamond_wiretap import cli, scenario_one, scenario_two
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


def _c_sweep(steps, *extra):
    return ["sweep", "--param", "c", "--from", "0.2", "--to", "2.2", "--steps", str(steps), *extra,
            "--p1", "4", "--p2", "1", "--g", "0.3", "--rprime", "0.6"]


def _most_bounds_alive(monkeypatch, steps):
    """The most results of either scenario's ``bounds`` alive at once during
    a sweep of ``steps`` rows along c, where no two rows share a channel."""
    refs, most = [], 0

    def tracked(bounds):
        def call(params, budget):
            nonlocal most
            result = bounds(params, budget)
            refs.append(weakref.ref(result))
            most = max(most, sum(ref() is not None for ref in refs))
            return result
        return call
    for module in (scenario_one, scenario_two):
        monkeypatch.setattr(module, "bounds", tracked(module.bounds))
    assert cli.main(_c_sweep(steps)) == 0
    monkeypatch.undo()
    return most


def test_a_sweep_holds_the_bounds_of_one_row_at_a_time(monkeypatch, capsys):
    # a row's bounds live only while the row is made, and the row only until it is written
    assert _most_bounds_alive(monkeypatch, 10) == _most_bounds_alive(monkeypatch, 40)
    assert len(capsys.readouterr().out.splitlines()) == 1 + 10 + 1 + 40


class _Stdout:
    """A stdout that keeps nothing; its ``closes_at``-th write raises what a
    write to a pipe whose reader has gone raises."""

    def __init__(self, closes_at=None):
        self.writes, self.closes_at = 0, closes_at

    def write(self, text):
        self.writes += 1
        if self.writes == self.closes_at:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)


def test_a_sweep_whose_last_row_fails_leaves_the_rows_before_it(monkeypatch, capsys):
    assert cli.main(_c_sweep(6)) == 0
    full = capsys.readouterr().out.splitlines(keepends=True)
    bounds = scenario_one.bounds

    def failing(params, budget):
        if params.c1 == 2.2:
            raise ArithmeticError("no bounds at the last row")
        return bounds(params, budget)
    monkeypatch.setattr(scenario_one, "bounds", failing)
    assert cli.main(_c_sweep(6)) == 2
    out, err = capsys.readouterr()
    # the header and the five rows before the failing one, as the full sweep prints them
    assert len(full) == 1 + 6
    assert out == "".join(full[:-1])
    assert err == "numerical failure: no bounds at the last row\n"


def test_a_sweep_takes_memory_that_does_not_follow_its_rows():
    with contextlib.redirect_stdout(_Stdout()):
        # the warm-up compiles the table's loops, which every later sweep shares
        assert cli.main(_c_sweep(5, "--scenario", "1")) == 0
        tracemalloc.start()
        try:
            assert cli.main(_c_sweep(600, "--scenario", "1")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a sweep that held its rows until the last one would peak at 1.1 MB here
    assert peak < 1_000_000


def test_a_stdout_that_closes_stops_the_sweep_at_its_next_write(monkeypatch, capsys):
    calls, bounds = [], scenario_one.bounds

    def counted(params, budget):
        calls.append(params)
        return bounds(params, budget)
    monkeypatch.setattr(scenario_one, "bounds", counted)
    with contextlib.redirect_stdout(_Stdout(closes_at=4)):
        assert cli.main(_c_sweep(50, "--scenario", "1")) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    # three rows written and a fourth made, each from its channel and that channel at g = 0
    assert len(calls) == 2 * (3 + 1)


def _flags(settings):
    return [token for flag in settings.items() for token in flag]


def _eval(capsys, settings, *extra):
    assert cli.main(["eval", *_flags(settings), *extra, "--format", "kv"]) == 0
    return _blocks(capsys.readouterr().out)[0]


@pytest.mark.parametrize("param, fixed, span", [
    ("c", {"--p1": "4", "--p2": "1", "--g": "0.3", "--rprime": "0.6"}, (0.0, 2.2, 5)),
    ("p", {"--c1": "0.5", "--c2": "0.8", "--g": "0.2", "--rprime": "0.6"}, (0.5, 20.0, 4)),
    ("g", {"--p": "3", "--c": "1.2", "--rprime": "0.5"}, (0.0, 0.9, 4)),
])
def test_each_sweep_row_is_what_eval_prints_for_its_channel(param, fixed, span, capsys):
    start, stop, steps = span
    argv = ["sweep", "--param", param, "--from", str(start), "--to", str(stop), "--steps", str(steps),
            "--scenario", "both", "--format", "kv", *_flags(fixed)]
    assert cli.main(argv) == 0
    rows = _blocks(capsys.readouterr().out)
    assert len(rows) == steps
    # the sweep's points are those of numpy.linspace, bit for bit
    for row, value in zip(rows, np.linspace(start, stop, steps)):
        channel = {**fixed, f"--{param}": repr(float(value))}
        point = _eval(capsys, channel)
        no_eavesdropper = _eval(capsys, {**channel, "--g": "0"}, "--scenario", "1")
        assert row.pop("swept_value") == point[param if param == "g" else f"{param}1"]
        assert row.pop("nosecrecy_ub") == no_eavesdropper["ub1"]
        assert row.pop("nosecrecy_lb") == no_eavesdropper["lb1"]
        # PDF is plain PDF: eval prints no rho for it, and the sweep's is 0
        assert row.pop("rho_lb1_pdf") == "0"
        rhos = {name: row.pop(name) for name in list(row) if name.startswith("rho_")}
        assert rhos == {f"rho_{name[:-len('_rho')]}": point[name] for name in point if name.endswith("_rho")}
        # what is left are the ten value columns, ub1 to lb2
        assert len(row) == 10
        assert row == {name: point[name] for name in row}
