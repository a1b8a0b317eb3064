"""numpy stays off the import path of the numerical commands: ``eval``,
``sweep``, ``thresholds`` and ``capacity`` run on plain floats, and only
``oracle-check`` and ``dmc`` import numpy, through ``oracles``, when they
run.  The start of the command line imports no more of the package than it
needs and compiles no entry's sums or loop: every process pays for what
runs at import."""

import json
import os
import subprocess
import sys

import diamond_wiretap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diamond_wiretap.__file__)))

# Runs the commands in order in one fresh interpreter and prints, after
# each, whether numpy has been imported.
PROGRAM = """
import contextlib, io, json, sys
from diamond_wiretap import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(seen))
"""
# the package modules that ``python -m diamond_wiretap --help`` imports
HELP_MODULES = sorted(["diamond_wiretap", *(f"diamond_wiretap.{name}" for name in (
    "cli", "errors", "rate_functions", "scalar_opt", "schemes", "scenario_one", "scenario_two"))])
# Prints the sizes of the caches of compiled sums and loops after the help
# and again after one ``eval``, in one fresh interpreter.
CACHES = """
import contextlib, io, json
from diamond_wiretap import cli, rate_functions as rf
sizes = []
for argv in (["--help"], ["eval", "--p", "10", "--c", "1.5", "--g", "0.1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(argv)
    sizes.append([rf.term_sums.cache_info().currsize, rf.term_loop.cache_info().currsize])
print(json.dumps(sizes))
"""


def _run(commands, program=PROGRAM):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", program, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numerical_commands_run_without_numpy(tmp_path):
    dmc = tmp_path / "chan.json"
    # the relays' bits reach the receiver unchanged; the eavesdropper hears nothing
    dmc.write_text(json.dumps({
        "alphabet_sizes": [2, 2, 4, 1],
        "transition": [1.0 if y == 2 * x1 + x2 else 0.0 for x1 in range(2) for x2 in range(2) for y in range(4)],
        "input_pmf": [0.25] * 4, "c1": 3.0, "c2": 3.0,
    }))
    seen = _run([
        ["eval", "--p1", "3", "--p2", "0.5", "--c", "1", "--g", "0.3", "--rprime", "0.4"],
        ["sweep", "--param", "g", "--from", "0", "--to", "0.5", "--steps", "3", "--p", "2", "--c", "1"],
        ["thresholds", "--p", "1", "--g", "0.1", "--steps", "7"],
        ["capacity", "--p", "10", "--c", "1.5", "--g", "0.1"],
        ["oracle-check", "--trials", "5"],
        ["dmc", "--file", str(dmc)],
    ])
    assert seen == [
        ["eval", 0, False], ["sweep", 0, False], ["thresholds", 0, False], ["capacity", 0, False],
        ["oracle-check", 0, True], ["dmc", 0, True],
    ]


def test_help_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "diamond_wiretap", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    assert sorted(name for name in imported if name.split(".")[0] == "diamond_wiretap") == HELP_MODULES
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_no_entry_loop_is_compiled_before_the_first_solve():
    # the help compiles nothing; the first eval compiles the loops it solves
    (sums, loops), (_, solved) = _run([], CACHES)
    assert (sums, loops) == (0, 0) and solved > 0
