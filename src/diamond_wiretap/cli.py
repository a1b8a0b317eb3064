"""Command-line interface.

Subcommands:

* ``eval``         bounds for one parameter point
* ``sweep``        bounds along a swept parameter, tabular output
* ``thresholds``   scheme-advantage boundaries over the link capacity
* ``capacity``     coincidence certificate for symmetric parameters
* ``oracle-check`` closed forms vs the Gaussian log-determinant oracle
* ``dmc``          secrecy rates of a discrete channel document

Two output styles: ``kv`` ("key = value" lines, 10 significant digits) and
``csv`` (header plus rows, 6 significant digits).  Identical invocations
produce byte-identical output.  Each row reaches stdout as it is made, so a
failure in mid-``sweep`` leaves the rows before it there, and the exit code
says that the run failed; a stdout that closes (``sweep ... | head``) ends
the sweep at its next row with exit code 1.  Exit codes: 0 success, 1
invalid input (or a failed write), 2 numerical failure, 3 internal error (a
defect in the package: any other exception, whose traceback goes to
stderr).  ``oracle-check`` also exits 2 when its check fails (``passed =
false``), after printing its report as usual.

Only ``oracle-check`` and ``dmc`` import numpy, through ``oracles``, and
only when they run; likewise only ``thresholds`` and ``capacity`` import
``analysis``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

from .errors import DiamondWiretapError, ParameterError
from .rate_functions import ChannelParams, RandomnessBudget
from . import scenario_one, scenario_two

__all__ = ["main"]


def _is_negative_number(token: str) -> bool:
    """Whether ``token`` reads as a float with a leading minus, "-inf" included."""
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # argparse takes "-1e-3" or "-inf" after an option for another
        # option; joined to it, "--from=-1e-3", it is that option's value
        joined = []
        for token in sys.argv[1:] if args is None else args:
            option = joined[-1] if joined else ""
            if option.startswith("--") and "=" not in option and _is_negative_number(token):
                joined[-1] = f"{option}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # numerical failures here, so remap to the validation exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value, digits: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{digits}g}"
    return str(value)


def _render(rows, fmt: str):
    """Each row's text as the row comes: csv rows under a header line, kv
    blocks apart by a blank line."""
    for i, row in enumerate(rows):
        if fmt == "csv":
            header = "" if i else ",".join(k for k, _ in row) + "\n"
            yield header + ",".join(_fmt(v, 6) for _, v in row) + "\n"
        else:
            yield ("\n" if i else "") + "".join(f"{k} = {_fmt(v, 10)}\n" for k, v in row)


def _add_channel_flags(p: argparse.ArgumentParser, with_rprime: bool = True) -> None:
    p.add_argument("--p1", type=float, help="power constraint of relay 1")
    p.add_argument("--p2", type=float, help="power constraint of relay 2")
    p.add_argument("--p", type=float, help="shorthand for --p1 and --p2")
    p.add_argument("--c1", type=float, help="capacity of the link to relay 1 (bits/use)")
    p.add_argument("--c2", type=float, help="capacity of the link to relay 2 (bits/use)")
    p.add_argument("--c", type=float, help="shorthand for --c1 and --c2")
    p.add_argument("--g", type=float, help="eavesdropper gain in [0, 1)")
    if with_rprime:
        p.add_argument(
            "--rprime", default="inf",
            help="randomness budget in bits/use, or 'inf' (default)",
        )


def _pair(args, single: str, first: str, second: str, required) -> tuple[float | None, float | None]:
    s = getattr(args, single)
    a = getattr(args, first)
    b = getattr(args, second)
    if s is not None and (a is not None or b is not None):
        raise ParameterError(f"--{single} conflicts with --{first}/--{second}")
    if s is not None:
        return s, s
    if required and (a is None or b is None):
        raise ParameterError(f"missing --{single} (or both --{first} and --{second})")
    return a, b


def _params_from(args, *, skip: str | None = None) -> ChannelParams:
    p1, p2 = _pair(args, "p", "p1", "p2", required=skip != "p")
    c1, c2 = _pair(args, "c", "c1", "c2", required=skip != "c")
    g = args.g
    if g is None and skip != "g":
        raise ParameterError("missing --g")
    return ChannelParams(
        p1=1.0 if p1 is None else p1,
        p2=1.0 if p2 is None else p2,
        c1=0.0 if c1 is None else c1,
        c2=0.0 if c2 is None else c2,
        g=0.0 if g is None else g,
    )


def _budget_from(args) -> RandomnessBudget:
    try:
        value = float(args.rprime)
    except ValueError:
        raise ParameterError(f"--rprime must be a number or 'inf', got {args.rprime!r}")
    return RandomnessBudget(value)


_MODULES = {"1": scenario_one, "2": scenario_two}
# each scenario's reports as (column stem, field of its bounds): the converse
# first, then its table's schemes; ``eval`` and ``sweep`` both print from it
_REPORTS = {scenario: ((f"ub{scenario}", "upper"),
                       *((f"lb{scenario}_{report}", attr) for report, *_, attr in module.TABLE.schemes))
            for scenario, module in _MODULES.items()}
# a scheme pinned at rho = 0, plain PDF, gets no rho column in ``eval``
_PINNED = {f"lb{scenario}_{report}" for scenario, module in _MODULES.items()
           for report, _, lo, hi, _ in module.TABLE.schemes if lo == hi == "0"}
# the fields a swept parameter sets on every row
_SWEPT = {"c": ("c1", "c2"), "p": ("p1", "p2"), "g": ("g",)}


def _scenarios(args) -> tuple[str, ...]:
    return tuple(_MODULES) if args.scenario == "both" else (args.scenario,)


def cmd_eval(args):
    params = _params_from(args)
    budget = _budget_from(args)
    row: list[tuple[str, object]] = [
        ("p1", params.p1), ("p2", params.p2),
        ("c1", params.c1), ("c2", params.c2),
        ("g", params.g), ("rprime", budget.r_prime),
    ]
    rho_max: object = None
    note = None
    for scenario in _scenarios(args):
        b = _MODULES[scenario].bounds(params, budget)
        for stem, field in _REPORTS[scenario]:
            report = getattr(b, field)
            row.append((stem, report.value))
            if stem not in _PINNED:
                row.append((f"{stem}_rho", report.rho))
            if field == "upper":
                row += [(f"{stem}_branch", report.branch), (f"{stem}_binding", ";".join(report.binding))]
            # a closed-form branch (T1) may reach its optimum outside [-1, 1]: say whether it did
            if field == "upper" and _MODULES[scenario].TABLE.closed:
                row.append((f"{stem}_rho_in_unit_interval", report.rho_in_unit_interval))
        if _MODULES[scenario].TABLE.linked:
            row.append((f"lb{scenario}_indicator_satisfied", b.indicator_satisfied))
        row.append((f"lb{scenario}", b.lower))
        rho_max, note = b.rho_max, b.note or note
    row.append(("rho_max", "none" if rho_max is None else rho_max))
    if note:
        row.append(("note", note))
    return _render([row], args.format)


def cmd_sweep(args):
    # the shorthand flag, then the fields it sets (--g is both)
    for flag in (args.param, *_SWEPT[args.param]):
        if getattr(args, flag) is not None:
            raise ParameterError(f"--{flag} conflicts with sweeping '{args.param}'")
    if args.steps < 2:
        raise ParameterError("--steps must be at least 2")
    if args.param == "g" and not (0.0 <= args.from_ and args.to < 1.0):
        raise ParameterError("gain sweep must stay inside [0, 1)")

    base = _params_from(args, skip=args.param)
    budget = _budget_from(args)
    # one row's bounds, its no-eavesdropper channel's in the first scenario
    # among them: the same on every row of a gain sweep, the row's own at g = 0
    bounds = functools.lru_cache(maxsize=len(_MODULES) + 1)(
        lambda scenario, params: _MODULES[scenario].bounds(params, budget))

    # the points of numpy.linspace, bit for bit: start + i*step, and stop last
    step = (args.to - args.from_) / (args.steps - 1)
    if not all(map(math.isfinite, (args.from_, args.to, step))):
        raise ParameterError("--from, --to and the step (--to - --from)/(--steps - 1) must be finite")

    def rows():
        for i in range(args.steps):
            v = args.from_ + i * step if i < args.steps - 1 else args.to
            params = replace(base, **dict.fromkeys(_SWEPT[args.param], v))
            found = [(scenario, bounds(scenario, params)) for scenario in _scenarios(args)]
            ns = bounds(next(iter(_MODULES)), replace(params, g=0.0))
            row: list[tuple[str, object]] = [("swept_value", v)]
            for scenario, b in found:
                row += [(stem, getattr(b, field).value) for stem, field in _REPORTS[scenario]]
                row.append((f"lb{scenario}", b.lower))
            for scenario, b in found:
                row += [(f"rho_{stem}", getattr(b, field).rho) for stem, field in _REPORTS[scenario]]
            row += [("nosecrecy_ub", ns.upper.value), ("nosecrecy_lb", ns.lower)]
            yield row
    return _render(rows(), args.format)


def cmd_thresholds(args):
    from .analysis import detect_thresholds

    schemes_a = None if args.schemes_a is None else tuple(args.schemes_a.split(","))
    schemes_b = None if args.schemes_b is None else tuple(args.schemes_b.split(","))
    report = detect_thresholds(
        p=args.p, g=args.g, scenario=int(args.scenario),
        schemes_a=schemes_a, schemes_b=schemes_b,
        budget=_budget_from(args),
        c_min=args.c_min, c_max=args.c_max, steps=args.steps,
    )
    if not report.crossings:
        # header only / explicit count so empty results stay machine-readable
        return ["c,schemes\n" if args.format == "csv" else "crossings = 0\n"]
    return _render(([("c", cr.c), ("schemes", ";".join(cr.schemes))] for cr in report.crossings), args.format)


def cmd_capacity(args):
    from .analysis import capacity_condition

    params = _params_from(args)
    verdict = capacity_condition(params)
    row: list[tuple[str, object]] = [
        ("p", params.p1), ("c", params.c1), ("g", params.g),
        ("applies", verdict.applies),
        ("condition_lower", verdict.condition_lower),
        ("condition_upper", verdict.condition_upper),
        ("auxiliary", verdict.auxiliary),
        ("upper_value", verdict.upper_value),
        ("lower_value", verdict.lower_value),
        ("capacity", "none" if verdict.capacity is None else verdict.capacity),
        ("rho_prime", "none" if verdict.rho_prime is None else verdict.rho_prime),
    ]
    if verdict.note:
        row.append(("note", verdict.note))
    return _render([row], args.format)


def cmd_oracle_check(args):
    from .oracles import validate_closed_forms

    report = validate_closed_forms(trials=args.trials, seed=args.seed, tolerance=args.tol)
    args.exit_code = 0 if report.passed else 2
    row = [
        ("trials", report.trials),
        ("seed", report.seed),
        ("tolerance", report.tolerance),
        ("checked", report.checked),
        ("skipped", report.skipped),
        ("max_deviation", report.max_deviation),
        ("failures", len(report.failures)),
        ("passed", report.passed),
    ]
    return _render([row], args.format)


def cmd_dmc(args):
    from .oracles import DMC_SCHEMES, dmc_rates, load_dmc

    channel, pin, c1, c2 = load_dmc(args.file)
    rates = dmc_rates(channel, pin, c1, c2)
    row = [("c1", c1), ("c2", c2), *((name, getattr(rates, name)) for name in DMC_SCHEMES), ("rprime", rates.r_prime)]
    return _render([row], args.format)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diamond-wiretap", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(exit_code=0)  # a check that runs and fails sets 2

    p_eval = sub.add_parser("eval", help="bounds for one parameter point")
    _add_channel_flags(p_eval)
    p_eval.add_argument("--scenario", choices=(*_MODULES, "both"), default="both")
    p_eval.add_argument("--format", choices=("kv", "csv"), default="kv")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="bounds along a swept parameter")
    _add_channel_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=tuple(_SWEPT))
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--scenario", choices=(*_MODULES, "both"), default="both")
    p_sweep.add_argument("--format", choices=("csv", "kv"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_thr = sub.add_parser("thresholds", help="scheme-advantage boundaries over C")
    p_thr.add_argument("--p", type=float, required=True)
    p_thr.add_argument("--g", type=float, required=True)
    p_thr.add_argument("--scenario", choices=tuple(_MODULES), default=next(iter(_MODULES)))
    p_thr.add_argument("--schemes-a", dest="schemes_a")
    p_thr.add_argument("--schemes-b", dest="schemes_b")
    p_thr.add_argument("--rprime", default="inf")
    p_thr.add_argument("--c-min", dest="c_min", type=float, default=0.0)
    p_thr.add_argument("--c-max", dest="c_max", type=float, default=3.0)
    p_thr.add_argument("--steps", type=int, default=121)
    p_thr.add_argument("--format", choices=("csv", "kv"), default="csv")
    p_thr.set_defaults(func=cmd_thresholds)

    p_cap = sub.add_parser("capacity", help="coincidence certificate (symmetric)")
    _add_channel_flags(p_cap, with_rprime=False)
    p_cap.add_argument("--format", choices=("kv", "csv"), default="kv")
    p_cap.set_defaults(func=cmd_capacity)

    p_orc = sub.add_parser("oracle-check", help="closed forms vs Gaussian oracle")
    p_orc.add_argument("--trials", type=int, default=1000)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument("--tol", type=float, default=1e-9)
    p_orc.add_argument("--format", choices=("kv", "csv"), default="kv")
    p_orc.set_defaults(func=cmd_oracle_check)

    p_dmc = sub.add_parser("dmc", help="secrecy rates of a discrete channel document")
    p_dmc.add_argument("--file", required=True, help="path to the channel document (JSON)")
    p_dmc.add_argument("--format", choices=("kv", "csv"), default="kv")
    p_dmc.set_defaults(func=cmd_dmc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for text in args.func(args):
            sys.stdout.write(text)
    except (OSError, ValueError) as e:  # first: ParameterError and the other input errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DiamondWiretapError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only on a defect: it adds milliseconds to every start

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 3
    return args.exit_code


if __name__ == "__main__":
    sys.exit(main())
