"""Command-line interface: output formats, exit codes, flag validation."""

import dataclasses
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from diamond_wiretap import analysis, cli, scenario_one, scenario_two
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget


def run(capsys, *args):
    try:
        rc = cli.main(list(args))
    except SystemExit as exc:  # argparse failures funnel through exit code 1
        rc = int(exc.code)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def test_eval_kv_defaults(capsys):
    rc, out, err = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1")
    assert rc == 0 and err == ""
    fields = kv(out)
    assert float(fields["ub2"]) == pytest.approx(1.494030011, abs=1e-8)
    assert float(fields["lb2"]) == pytest.approx(1.494030011, abs=1e-8)
    assert fields["ub1_branch"] == "S4"
    assert fields["ub2_branch"] == "T2"
    assert fields["lb2_indicator_satisfied"] == "true"
    assert fields["rprime"] == "inf"
    assert fields["rho_max"] == "1"


def test_eval_scenario_filter(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1", "--scenario", "1")
    assert rc == 0
    fields = kv(out)
    assert "ub1" in fields and "ub2" not in fields
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1", "--scenario", "2")
    fields = kv(out)
    assert "ub2" in fields and "ub1" not in fields


def test_eval_csv_format(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1", "--format", "csv")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert len(header.split(",")) == len(row.split(","))
    assert "ub1" in header.split(",") and "ub2" in header.split(",")


def test_eval_deterministic(capsys):
    args = ("eval", "--p", "7", "--c", "1.2", "--g", "0.3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_eval_asymmetric_flags(capsys):
    rc, out, _ = run(
        capsys, "eval", "--p1", "4", "--p2", "1", "--c1", "0.5", "--c2", "0.8", "--g", "0.2",
    )
    assert rc == 0
    fields = kv(out)
    assert fields["p1"] == "4" and fields["p2"] == "1"


def test_eval_shorthand_conflict(capsys):
    rc, _, err = run(capsys, "eval", "--p", "10", "--p1", "4", "--c", "1", "--g", "0.1")
    assert rc == 1
    assert err != ""


def test_eval_budget_changes_feasible_set(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1", "--rprime", "0.5")
    assert rc == 0
    fields = kv(out)
    assert float(fields["rho_max"]) == pytest.approx(-0.5, abs=1e-6)
    assert float(fields["lb1"]) < 1.4


def test_eval_invalid_parameter(capsys):
    rc, _, err = run(capsys, "eval", "--p", "-1", "--c", "1", "--g", "0.1")
    assert rc == 1 and err != ""
    rc, _, err = run(capsys, "eval", "--p", "10", "--c", "1", "--g", "1.0")
    assert rc == 1


@pytest.mark.parametrize("args, message", [
    (("--p", "10", "--c", "1", "--g", "0.5", "--rprime", "abc"), "--rprime must be a number or 'inf', got 'abc'"),
    (("--p", "10", "--c", "1", "--g", "0.5", "--rprime", "nan"), "r_prime must be a number, got nan"),
    (("--p", "10", "--c", "1"), "missing --g"),
    (("--p1", "10", "--c", "1", "--g", "0.5"), "missing --p (or both --p1 and --p2)"),
    (("--p", "4.5e307", "--c", "1", "--g", "0.5"),
     "powers too large: s(1) = p1 + p2 + 2*sqrt(p1*p2) overflows, got p1=4.5e+307, p2=4.5e+307"),
])
def test_eval_rejects_bad_flags_with_their_message(capsys, args, message):
    rc, out, err = run(capsys, "eval", *args)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("token", ["INF", " inf ", "Infinity"])
def test_eval_reads_any_spelling_of_inf_as_the_default_budget(capsys, token):
    args = ("eval", "--p", "10", "--c", "1.5", "--g", "0.1")
    default = run(capsys, *args)
    assert default[0] == 0
    assert run(capsys, *args, "--rprime", token) == default


def test_eval_reports_a_budget_that_admits_no_correlation(capsys):
    rc, out, _ = run(capsys, "eval", "--p1", "10", "--p2", "0.1", "--c", "1", "--g", "0.5", "--rprime", "0")
    assert rc == 0
    fields = kv(out)
    assert fields["rho_max"] == "none" and fields["lb1"] == "0" and fields["lb2"] == "0"
    assert fields["lb2_indicator_satisfied"] == "false"
    assert out.endswith("note = randomness budget below the minimum leakage f5(-1): no feasible correlation\n")


def test_numerical_failure_exits_2(capsys, monkeypatch):
    def fail(params, budget):
        raise ArithmeticError("no optimum")
    monkeypatch.setattr(cli.scenario_one, "bounds", fail)
    rc, out, err = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1")
    assert (rc, out, err) == (2, "", "numerical failure: no optimum\n")


def test_unknown_flag_and_missing_subcommand(capsys):
    rc, _, err = run(capsys, "eval", "--p", "10", "--c", "1", "--g", "0.1", "--nope")
    assert rc == 1
    rc, _, err = run(capsys)
    assert rc == 1


def test_sweep_csv_shape(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--param", "c", "--from", "0.2", "--to", "0.4", "--steps", "3",
        "--p", "1", "--g", "0.1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("swept_value,")
    assert len(lines) == 4
    assert "nosecrecy_ub" in header and "nosecrecy_lb" in header
    first = dict(zip(header, lines[1].split(",")))
    # link-limited row: everything collapses to 2c
    assert float(first["ub1"]) == pytest.approx(0.4, abs=1e-5)
    assert float(first["nosecrecy_ub"]) == pytest.approx(0.4, abs=1e-5)


def test_sweep_scenario_subset(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--param", "c", "--from", "0.2", "--to", "0.4", "--steps", "2",
        "--p", "1", "--g", "0.1", "--scenario", "2",
    )
    assert rc == 0
    header = out.strip().splitlines()[0].split(",")
    assert "ub2" in header and "ub1" not in header


def test_sweep_scenario_columns_match_both(capsys):
    sweep = (
        "sweep", "--param", "c", "--from", "0.2", "--to", "2.2", "--steps", "5",
        "--p1", "4", "--p2", "1", "--g", "0.3", "--rprime", "0.6", "--format", "csv",
    )
    rc, both, _ = run(capsys, *sweep)
    assert rc == 0
    both_rows = [line.split(",") for line in both.splitlines()]
    for scenario in ("1", "2"):
        rc, out, _ = run(capsys, *sweep, "--scenario", scenario)
        assert rc == 0
        columns = [both_rows[0].index(name) for name in out.splitlines()[0].split(",")]
        expected = "".join(",".join(row[i] for i in columns) + "\n" for row in both_rows)
        assert out == expected


EVAL_HEADER = {
    "1": "ub1,ub1_rho,ub1_branch,ub1_binding,lb1_df,lb1_df_rho,lb1_pdf,lb1_pdfm,lb1_pdfm_rho,lb1",
    "2": "ub2,ub2_rho,ub2_branch,ub2_binding,ub2_rho_in_unit_interval,lb2_df,lb2_df_rho,"
         "lb2_pdfdfm,lb2_pdfdfm_rho,lb2_pdfpdfm,lb2_pdfpdfm_rho,lb2_indicator_satisfied,lb2",
}
SWEEP_VALUES = {"1": "ub1,lb1_df,lb1_pdf,lb1_pdfm,lb1", "2": "ub2,lb2_df,lb2_pdfdfm,lb2_pdfpdfm,lb2"}
SWEEP_RHOS = {
    "1": "rho_ub1,rho_lb1_df,rho_lb1_pdf,rho_lb1_pdfm",
    "2": "rho_ub2,rho_lb2_df,rho_lb2_pdfdfm,rho_lb2_pdfpdfm",
}


@pytest.mark.parametrize("scenario, parts", [("1", ("1",)), ("2", ("2",)), ("both", ("1", "2"))])
def test_eval_and_sweep_print_their_columns_in_order(capsys, scenario, parts):
    # the full csv headers, written out so that no column is renamed or moved unnoticed
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1", "--scenario", scenario, "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == ",".join(["p1,p2,c1,c2,g,rprime", *(EVAL_HEADER[s] for s in parts), "rho_max"])
    rc, out, _ = run(capsys, "sweep", "--param", "c", "--from", "0.2", "--to", "0.4", "--steps", "2",
                     "--p", "1", "--g", "0.1", "--scenario", scenario)
    assert rc == 0
    assert out.splitlines()[0] == ",".join(["swept_value", *(SWEEP_VALUES[s] for s in parts),
                                            *(SWEEP_RHOS[s] for s in parts), "nosecrecy_ub,nosecrecy_lb"])


@pytest.mark.parametrize("scenario", ["1", "2"])
def test_each_list_of_schemes_is_the_rows_of_its_scenario_table(capsys, scenario):
    """The keys of ``scheme_rates``, ``analysis.SCENARIO_*_SCHEMES``, the
    ``lb<n>_<key>`` columns of ``eval --format csv`` and the ``lower_*``
    fields of the bounds follow the rows of the scenario's ``TABLE``, in
    order, and each field holds the rate of its row's key."""
    module = {"1": scenario_one, "2": scenario_two}[scenario]
    keys = [report for report, *_ in module.TABLE.schemes]
    fields = [field for *_, field in module.TABLE.schemes]
    params, budget = ChannelParams(3.0, 0.5, 1.0, 1.1, 0.3), RandomnessBudget(0.6)
    rates = module.scheme_rates(params, budget)
    assert list(rates) == keys
    assert list({"1": analysis.SCENARIO_ONE_SCHEMES, "2": analysis.SCENARIO_TWO_SCHEMES}[scenario]) == keys
    rc, out, _ = run(capsys, "eval", "--p1", "3", "--p2", "0.5", "--c1", "1", "--c2", "1.1", "--g", "0.3",
                     "--rprime", "0.6", "--scenario", scenario, "--format", "csv")
    assert rc == 0
    columns = [m[1] for name in out.splitlines()[0].split(",") if (m := re.fullmatch(f"lb{scenario}_([a-z]+)", name))]
    assert columns == keys
    b = module.bounds(params, budget)
    assert [f.name for f in dataclasses.fields(b) if f.name.startswith("lower_")] == fields
    assert [getattr(b, field).value for field in fields] == [rates[key] for key in keys]


@pytest.mark.parametrize("command, value, extra", [
    (("eval", "--p", "10", "--c", "1.5", "--g", "0.1"), "3", ("both",)),
    (("sweep", "--param", "c", "--from", "0.2", "--to", "0.4", "--steps", "2", "--p", "1", "--g", "0.1"), "3",
     ("both",)),
    (("thresholds", "--p", "1", "--g", "0.1"), "3", ()),
    (("thresholds", "--p", "1", "--g", "0.1"), "both", ()),
], ids=["eval", "sweep", "thresholds", "thresholds-both"])
def test_a_scenario_outside_the_tables_is_an_invalid_choice(capsys, command, value, extra):
    # the choices are the keys of cli._MODULES, plus "both" where every scenario can run
    rc, out, err = run(capsys, *command, "--scenario", value)
    assert (rc, out) == (1, "")
    listed = re.search(rf"argument --scenario: invalid choice: '{value}' \(choose from (.*)\)\n\Z", err)
    assert listed is not None, err
    assert [choice.strip("'") for choice in listed[1].split(", ")] == [*cli._MODULES, *extra]


@pytest.mark.parametrize("ends", [("--from", "1", "--to", "inf"), ("--from", "nan", "--to", "1"),
                                  ("--from=-1e308", "--to", "1e308")])
@pytest.mark.parametrize("param, fixed", [("c", ("--p", "1")), ("p", ("--c", "1"))])
def test_sweep_rejects_a_range_or_step_that_is_not_finite(capsys, param, fixed, ends):
    # the rows start + i*step would hold a nan or inf that the user never typed
    rc, out, err = run(capsys, "sweep", "--param", param, *ends, "--steps", "2", *fixed, "--g", "0.1")
    assert (rc, out) == (1, "")
    assert err == "error: --from, --to and the step (--to - --from)/(--steps - 1) must be finite\n"


@pytest.mark.parametrize("args, message", [
    (("sweep", "--param", "c", "--from", "-1e-3", "--to", "1", "--steps", "2", "--p", "1", "--g", "0.1"),
     "link capacities must be nonnegative, got c1=-0.001, c2=-0.001"),
    (("eval", "--p", "1", "--c", "1", "--g", "0.1", "--rprime", "-1e-3"), "r_prime must be nonnegative, got -0.001"),
    (("eval", "--p", "1", "--c", "-1e-3", "--g", "0.1"),
     "link capacities must be nonnegative, got c1=-0.001, c2=-0.001"),
    (("thresholds", "--p", "1", "--g", "0.1", "--c-min", "-1e-3"),
     "link capacities must be nonnegative, got c1=-0.001, c2=-0.001"),
    (("sweep", "--param", "p", "--from", "-inf", "--to", "1", "--steps", "2", "--c", "1", "--g", "0.1"),
     "--from, --to and the step (--to - --from)/(--steps - 1) must be finite"),
])
def test_a_negative_number_with_an_exponent_or_inf_is_an_option_value(capsys, args, message):
    # argparse alone reads "-1e-3" and "-inf" as options, not as values
    rc, out, err = run(capsys, *args)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_a_dash_token_that_is_no_number_stays_an_option(capsys):
    # "-x" does not read as a float, so it is not joined to --g as its value
    rc, out, err = run(capsys, "eval", "--p", "1", "--c", "1", "--g", "-x")
    assert (rc, out) == (1, "")
    assert err.endswith("argument --g: expected one argument\n")


def test_sweep_conflicts_and_ranges(capsys):
    rc, _, err = run(
        capsys, "sweep", "--param", "c", "--c", "1.0", "--from", "0.2", "--to", "0.4",
        "--steps", "2", "--p", "1", "--g", "0.1",
    )
    assert rc == 1 and "conflict" in err
    rc, _, err = run(
        capsys, "sweep", "--param", "g", "--from", "0.5", "--to", "1.0", "--steps", "2",
        "--p", "1", "--c", "1",
    )
    assert rc == 1


def test_sweep_needs_two_steps(capsys):
    rc, out, err = run(capsys, "sweep", "--param", "c", "--from", "0", "--to", "1", "--steps", "1", "--p", "1", "--g", "0.1")
    assert (rc, out, err) == (1, "", "error: --steps must be at least 2\n")


def test_thresholds_csv(capsys):
    rc, out, _ = run(
        capsys, "thresholds", "--p", "1", "--g", "0.1", "--scenario", "1",
        "--c-min", "0.25", "--c-max", "0.45", "--steps", "11",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,schemes"
    assert len(lines) == 2
    c_val, schemes = lines[1].split(",")
    assert float(c_val) == pytest.approx(0.330482, abs=1e-4)
    assert set(schemes.split(";")) == {"pdf", "pdfm"}


def test_thresholds_empty(capsys):
    rc, out, _ = run(
        capsys, "thresholds", "--p", "1", "--g", "0.1", "--scenario", "1",
        "--schemes-a", "df", "--schemes-b", "pdfm",
        "--c-min", "0.1", "--c-max", "0.3", "--steps", "5",
    )
    assert rc == 0
    assert out.strip() == "c,schemes"
    rc, out, _ = run(
        capsys, "thresholds", "--p", "1", "--g", "0.1", "--scenario", "1",
        "--schemes-a", "df", "--schemes-b", "pdfm",
        "--c-min", "0.1", "--c-max", "0.3", "--steps", "5", "--format", "kv",
    )
    assert out.strip() == "crossings = 0"


def test_thresholds_bad_scheme(capsys):
    rc, _, err = run(
        capsys, "thresholds", "--p", "1", "--g", "0.1", "--schemes-a", "bogus",
        "--c-min", "0.1", "--c-max", "0.3", "--steps", "5",
    )
    assert rc == 1 and err != ""


@pytest.mark.parametrize("flag", ["--schemes-a", "--schemes-b"])
def test_thresholds_rejects_an_empty_scheme_list(capsys, flag):
    # an empty list is a list with the one scheme '', not the default groups
    rc, out, err = run(capsys, "thresholds", "--p", "10", "--g", "0.1", flag, "")
    assert (rc, out) == (1, "")
    assert err == "error: unknown scheme '' for scenario 1; pick from ('df', 'pdf', 'pdfm')\n"


def test_thresholds_rejects_an_empty_range(capsys):
    rc, out, err = run(capsys, "thresholds", "--p", "1", "--g", "0.1", "--c-min", "2", "--c-max", "1")
    assert (rc, out, err) == (1, "", "error: need c_min < c_max and at least 2 steps\n")


@pytest.mark.parametrize("ends", [("--c-max", "nan"), ("--c-max", "inf"), ("--c-min", "-inf"),
                                  ("--c-max", "1e308", "--steps", "3")])
def test_thresholds_rejects_a_range_or_grid_that_is_not_finite(capsys, ends):
    # the grid c_min + (c_max - c_min)*i/(steps - 1) would hold a nan or inf
    # that the user never typed
    rc, out, err = run(capsys, "thresholds", "--p", "1", "--g", "0.1", *ends)
    assert (rc, out) == (1, "")
    assert err.startswith("error: c_min, c_max and (c_max - c_min)*(steps - 1) must be finite, got ")


def test_capacity_applies(capsys):
    rc, out, _ = run(capsys, "capacity", "--p", "10", "--c", "1.5", "--g", "0.1")
    assert rc == 0
    fields = kv(out)
    assert fields["applies"] == "true"
    assert float(fields["capacity"]) == pytest.approx(1.49403001, abs=1e-6)
    assert float(fields["rho_prime"]) == pytest.approx(0.67818937, abs=1e-6)


def test_capacity_does_not_apply(capsys):
    rc, out, _ = run(capsys, "capacity", "--p", "10", "--c", "0.5", "--g", "0.1")
    assert rc == 0
    fields = kv(out)
    assert fields["applies"] == "false"
    assert fields["capacity"] == "none"
    assert "note" in fields


def test_capacity_gives_a_verdict_where_rho_star_rounds_to_one(capsys):
    rc, out, _ = run(capsys, "capacity", "--p", "1e16", "--c", "1", "--g", "0.5")
    assert rc == 0
    assert kv(out)["applies"] == "false"


def test_capacity_rejects_asymmetric(capsys):
    rc, _, err = run(capsys, "capacity", "--p1", "4", "--p2", "1", "--c", "1.5", "--g", "0.1")
    assert rc == 1


def test_oracle_check(capsys):
    rc, out, _ = run(capsys, "oracle-check", "--trials", "40", "--seed", "2")
    assert rc == 0
    fields = kv(out)
    assert fields["passed"] == "true"
    assert int(fields["failures"]) == 0
    assert int(fields["trials"]) == 40


def test_oracle_check_exits_2_on_a_failed_check(capsys):
    # at 1e-15 the round-off of the closed forms fails the check: the report
    # is printed as usual and the exit code tells scripts that it failed
    rc, out, err = run(capsys, "oracle-check", "--trials", "50", "--tol", "1e-15")
    assert rc == 2 and err == ""
    fields = kv(out)
    assert fields["passed"] == "false"
    assert int(fields["failures"]) > 0
    assert int(fields["checked"]) == 350


def test_a_defect_exits_3_with_its_traceback(capsys, monkeypatch):
    # an exception outside the input and numerical families is a defect, not
    # invalid input: exit 1 would blame the caller
    def broken(args):
        return undefined_name  # noqa: F821

    monkeypatch.setattr(cli, "cmd_eval", broken)
    rc, out, err = run(capsys, "eval", "--p", "10", "--c", "1.5", "--g", "0.1")
    assert rc == 3 and out == ""
    assert "NameError" in err and "Traceback" in err
    assert err.endswith("internal error\n")


@pytest.mark.parametrize("flags", [("--trials", "-3"), ("--tol", "nan"), ("--tol=-1e-9",)])
def test_oracle_check_rejects_negative_trials_and_bad_tolerances(capsys, flags):
    rc, out, err = run(capsys, "oracle-check", *flags)
    assert rc == 1 and out == ""
    assert err.startswith("error:")


def test_oracle_check_with_zero_trials_passes(capsys):
    rc, out, _ = run(capsys, "oracle-check", "--trials", "0")
    assert rc == 0
    fields = kv(out)
    assert fields["passed"] == "true"
    assert int(fields["checked"]) == 0


def test_dmc_command(capsys, tmp_path):
    t = np.zeros((2, 2, 4, 1))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, 2 * x1 + x2, 0] = 1.0
    doc = {
        "alphabet_sizes": [2, 2, 4, 1],
        "transition": t.reshape(-1).tolist(),
        "input_pmf": [0.25] * 4,
        "c1": 3.0,
        "c2": 3.0,
    }
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "dmc", "--file", str(path))
    assert rc == 0
    fields = kv(out)
    assert float(fields["pdfm1"]) == pytest.approx(2.0, abs=1e-9)
    assert float(fields["df2"]) == pytest.approx(2.0, abs=1e-9)
    assert float(fields["rprime"]) == pytest.approx(0.0, abs=1e-12)
    # a capacity of -0 reads as 0
    path.write_text(json.dumps({**doc, "c1": -0.0}))
    assert kv(run(capsys, "dmc", "--file", str(path))[1])["c1"] == "0"


def test_dmc_missing_and_malformed_file(capsys, tmp_path):
    rc, _, err = run(capsys, "dmc", "--file", str(tmp_path / "missing.json"))
    assert rc == 1 and err != ""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "dmc", "--file", str(bad))
    assert rc == 1
    good = {"alphabet_sizes": [2, 2, 2, 2], "transition": [0.0625] * 16, "input_pmf": [0.25] * 4, "c1": 1.0, "c2": 1.0}
    # JSON of the wrong type: not an object, sizes not a list, c1 not a number;
    # then ragged lists and an input pmf of the wrong size
    for doc in (5, {**good, "alphabet_sizes": 4}, {**good, "c1": None}, {**good, "c1": [1]},
                {**good, "transition": [[1.0], [0.0, 1.0]]}, {**good, "input_pmf": [0.5, 0.5]}):
        bad.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "dmc", "--file", str(bad))
        assert (rc, out) == (1, "") and err.startswith("error:"), (doc, err)


def test_dmc_rejects_true_and_false_anywhere_in_the_document(capsys, tmp_path):
    # a valid channel with one input pair; numpy would read each true as 1
    good = {"alphabet_sizes": [1, 1, 2, 1], "transition": [0.5, 0.5], "input_pmf": [1.0], "c1": 1.0, "c2": 1.0}
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(good))
    assert run(capsys, "dmc", "--file", str(path))[0] == 0
    for doc in ({**good, "c1": True}, {**good, "c2": False}, {**good, "alphabet_sizes": [True, 1, 2, 1]},
                {**good, "input_pmf": [True]}, {**good, "note": {"flags": [1, True]}}):
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "dmc", "--file", str(path))
        assert (rc, out) == (1, "") and err.startswith("error: channel document needs a number"), doc


def test_eval_prints_a_minus_zero_input_as_zero(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "-0", "--g", "-0", "--rprime", "-0")
    fields = kv(out)
    assert rc == 0 and [fields[name] for name in ("c1", "c2", "g", "rprime")] == ["0"] * 4
    assert out == run(capsys, "eval", "--p", "10", "--c", "0", "--g", "0", "--rprime", "0")[1]


def test_eval_prints_no_minus_zero_rho(capsys):
    # at g = 0 the peaks of f1 - f5, f2 - f5, f3 - f5 and f3 - 2 f5 lie at 0
    rc, out, _ = run(capsys, "eval", "--p", "10", "--c", "0", "--g", "0", "--rprime", "0")
    fields = kv(out)
    assert rc == 0 and fields["lb2_pdfdfm_rho"] == "0"
    assert not [name for name, value in fields.items() if value.startswith("-0") and float(value) == 0.0]


def test_dmc_non_finite_capacity_exits_1(capsys, tmp_path):
    t = np.full((2, 2, 2, 2), 0.25)
    doc = {
        "alphabet_sizes": [2, 2, 2, 2],
        "transition": t.reshape(-1).tolist(),
        "input_pmf": [0.25] * 4,
        "c1": math.nan,
        "c2": 1.0,
    }
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))  # writes the bare token NaN, which json reads back
    rc, out, err = run(capsys, "dmc", "--file", str(path))
    assert rc == 1
    assert out == "" and "c1=nan" in err


def test_eval_extreme_power_ratio_returns():
    # the scenario-2 T1 search at this power ratio once never returned
    proc = subprocess.run(
        [sys.executable, "-m", "diamond_wiretap", "eval",
         "--p1", "1e5", "--p2", "1e-5", "--c", "1", "--g", "0.5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ub2 = " in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diamond_wiretap", "eval", "--p", "1", "--c", "0.3", "--g", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ub1 = " in proc.stdout


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# an sh block of one documented command, then the block of output it shows
DOCUMENTED_RUN = re.compile(r"```sh\n(diamond-wiretap (?:eval|thresholds|capacity) [^\n]*)\n```\n\n```\n(.*?)```", re.S)
DOCUMENTED_RUNS = DOCUMENTED_RUN.findall(README.read_text())


def test_readme_shows_output_of_eval_thresholds_and_capacity():
    assert sorted(command.split()[1] for command, _ in DOCUMENTED_RUNS) == ["capacity", "eval", "thresholds"]


@pytest.mark.parametrize("command, shown", DOCUMENTED_RUNS, ids=[c for c, _ in DOCUMENTED_RUNS])
def test_readme_output_is_what_the_command_prints(capsys, command, shown):
    rc, out, _ = run(capsys, *shlex.split(command)[1:])
    assert rc == 0
    printed = iter(out.splitlines())
    for line in shown.splitlines():
        if line != "...":
            # ``in`` consumes the lines up to the match, so the shown lines must come in order
            assert line in printed, line
