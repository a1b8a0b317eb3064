"""Command-line interface: output formats, exit codes, flag validation."""

import json
import subprocess
import sys

import numpy as np
import pytest

from diamond_wiretap import cli


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


def test_dmc_missing_and_malformed_file(capsys, tmp_path):
    rc, _, err = run(capsys, "dmc", "--file", str(tmp_path / "missing.json"))
    assert rc == 1 and err != ""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "dmc", "--file", str(bad))
    assert rc == 1


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
