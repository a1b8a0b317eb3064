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
produce byte-identical output.  Exit codes: 0 success, 1 invalid input,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import capacity_condition, detect_thresholds
from .errors import (
    AsymmetricParams,
    DiamondWiretapError,
    InvalidPmf,
    ParameterError,
)
from .oracles import dmc_rates, load_dmc, validate_closed_forms
from .rate_functions import ChannelParams, RandomnessBudget
from . import scenario_one, scenario_two

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # numerical failures here, so remap to the validation exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value, digits: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.{digits}g}"
    return str(value)


def _render_kv(rows: list[list[tuple[str, object]]]) -> str:
    blocks = []
    for row in rows:
        blocks.append("\n".join(f"{k} = {_fmt(v, 10)}" for k, v in row))
    return "\n\n".join(blocks) + "\n"


def _render_csv(rows: list[list[tuple[str, object]]]) -> str:
    header = ",".join(k for k, _ in rows[0])
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v, 6) for _, v in row))
    return "\n".join(lines) + "\n"


def _render(rows, fmt: str) -> str:
    return _render_csv(rows) if fmt == "csv" else _render_kv(rows)


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
    token = args.rprime
    if isinstance(token, str) and token.strip().lower() == "inf":
        return RandomnessBudget.unbounded()
    try:
        value = float(token)
    except ValueError:
        raise ParameterError(f"--rprime must be a number or 'inf', got {token!r}")
    return RandomnessBudget(value)


def _binding_str(binding: tuple[str, ...]) -> str:
    return ";".join(binding)


def _scenario_one_fields(b) -> list[tuple[str, object]]:
    return [
        ("ub1", b.upper.value),
        ("ub1_rho", b.upper.rho),
        ("ub1_branch", b.upper.branch),
        ("ub1_binding", _binding_str(b.upper.binding)),
        ("lb1_df", b.lower_df.value),
        ("lb1_df_rho", b.lower_df.rho),
        ("lb1_pdf", b.lower_pdf.value),
        ("lb1_pdfm", b.lower_pdf_m.value),
        ("lb1_pdfm_rho", b.lower_pdf_m.rho),
        ("lb1", b.lower),
    ]


def _scenario_two_fields(b) -> list[tuple[str, object]]:
    return [
        ("ub2", b.upper.value),
        ("ub2_rho", b.upper.rho),
        ("ub2_branch", b.upper.branch),
        ("ub2_binding", _binding_str(b.upper.binding)),
        ("ub2_rho_in_unit_interval", b.upper.rho_in_unit_interval),
        ("lb2_df", b.lower_df.value),
        ("lb2_df_rho", b.lower_df.rho),
        ("lb2_pdfdfm", b.lower_pdf_df_m.value),
        ("lb2_pdfdfm_rho", b.lower_pdf_df_m.rho),
        ("lb2_pdfpdfm", b.lower_pdf_pdf_m.value),
        ("lb2_pdfpdfm_rho", b.lower_pdf_pdf_m.rho),
        ("lb2_indicator_satisfied", b.indicator_satisfied),
        ("lb2", b.lower),
    ]


def cmd_eval(args) -> str:
    params = _params_from(args)
    budget = _budget_from(args)
    row: list[tuple[str, object]] = [
        ("p1", params.p1), ("p2", params.p2),
        ("c1", params.c1), ("c2", params.c2),
        ("g", params.g), ("rprime", budget.r_prime),
    ]
    rho_max: object = None
    note = None
    if args.scenario in ("1", "both"):
        b1 = scenario_one.bounds(params, budget)
        row.extend(_scenario_one_fields(b1))
        rho_max, note = b1.rho_max, b1.note
    if args.scenario in ("2", "both"):
        b2 = scenario_two.bounds(params, budget)
        row.extend(_scenario_two_fields(b2))
        rho_max, note = b2.rho_max, b2.note or note
    row.append(("rho_max", "none" if rho_max is None else rho_max))
    if note:
        row.append(("note", note))
    return _render([row], args.format)


_SWEEPABLE = ("c", "p", "g")


def cmd_sweep(args) -> str:
    if args.param not in _SWEEPABLE:
        raise ParameterError(f"--param must be one of {_SWEEPABLE}")
    for flag in {"c": ("c", "c1", "c2"), "p": ("p", "p1", "p2"), "g": ("g",)}[args.param]:
        if getattr(args, flag) is not None:
            raise ParameterError(f"--{flag} conflicts with sweeping '{args.param}'")
    if args.steps < 2:
        raise ParameterError("--steps must be at least 2")
    if args.param == "g" and not (0.0 <= args.from_ and args.to < 1.0):
        raise ParameterError("gain sweep must stay inside [0, 1)")

    base = _params_from(args, skip=args.param)
    budget = _budget_from(args)
    values = np.linspace(args.from_, args.to, args.steps)

    rows = []
    for v in values:
        v = float(v)
        if args.param == "c":
            params = ChannelParams(base.p1, base.p2, v, v, base.g)
        elif args.param == "p":
            params = ChannelParams(v, v, base.c1, base.c2, base.g)
        else:
            params = ChannelParams(base.p1, base.p2, base.c1, base.c2, v)
        b1 = scenario_one.bounds(params, budget) if args.scenario in ("1", "both") else None
        b2 = scenario_two.bounds(params, budget) if args.scenario in ("2", "both") else None
        ns = scenario_one.bounds(replace(params, g=0.0), budget)
        row: list[tuple[str, object]] = [("swept_value", v)]
        if b1 is not None:
            row += [
                ("ub1", b1.upper.value), ("lb1_df", b1.lower_df.value),
                ("lb1_pdf", b1.lower_pdf.value), ("lb1_pdfm", b1.lower_pdf_m.value),
                ("lb1", b1.lower),
            ]
        if b2 is not None:
            row += [
                ("ub2", b2.upper.value), ("lb2_df", b2.lower_df.value),
                ("lb2_pdfdfm", b2.lower_pdf_df_m.value),
                ("lb2_pdfpdfm", b2.lower_pdf_pdf_m.value), ("lb2", b2.lower),
            ]
        if b1 is not None:
            row += [
                ("rho_ub1", b1.upper.rho), ("rho_lb1_df", b1.lower_df.rho),
                ("rho_lb1_pdf", b1.lower_pdf.rho), ("rho_lb1_pdfm", b1.lower_pdf_m.rho),
            ]
        if b2 is not None:
            row += [
                ("rho_ub2", b2.upper.rho), ("rho_lb2_df", b2.lower_df.rho),
                ("rho_lb2_pdfdfm", b2.lower_pdf_df_m.rho),
                ("rho_lb2_pdfpdfm", b2.lower_pdf_pdf_m.rho),
            ]
        row += [("nosecrecy_ub", ns.upper.value), ("nosecrecy_lb", ns.lower)]
        rows.append(row)
    return _render(rows, args.format)


def cmd_thresholds(args) -> str:
    schemes_a = tuple(args.schemes_a.split(",")) if args.schemes_a else None
    schemes_b = tuple(args.schemes_b.split(",")) if args.schemes_b else None
    try:
        report = detect_thresholds(
            p=args.p, g=args.g, scenario=int(args.scenario),
            schemes_a=schemes_a, schemes_b=schemes_b,
            budget=_budget_from(args),
            c_min=args.c_min, c_max=args.c_max, steps=args.steps,
        )
    except ValueError as e:
        raise ParameterError(str(e))
    rows = [
        [("c", cr.c), ("schemes", ";".join(cr.schemes))]
        for cr in report.crossings
    ]
    if not rows:
        # header only / explicit count so empty results stay machine-readable
        return "c,schemes\n" if args.format == "csv" else "crossings = 0\n"
    return _render(rows, args.format)


def cmd_capacity(args) -> str:
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


def cmd_oracle_check(args) -> str:
    report = validate_closed_forms(trials=args.trials, seed=args.seed, tolerance=args.tol)
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


def cmd_dmc(args) -> str:
    channel, pin, c1, c2 = load_dmc(args.file)
    rates = dmc_rates(channel, pin, c1, c2)
    row = [
        ("c1", c1), ("c2", c2),
        ("df1", rates.df1), ("pdfm1", rates.pdfm1),
        ("df2", rates.df2), ("pdfdfm2", rates.pdfdfm2), ("pdfpdfm2", rates.pdfpdfm2),
        ("rprime", rates.r_prime),
    ]
    return _render([row], args.format)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diamond-wiretap", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="bounds for one parameter point")
    _add_channel_flags(p_eval)
    p_eval.add_argument("--scenario", choices=("1", "2", "both"), default="both")
    p_eval.add_argument("--format", choices=("kv", "csv"), default="kv")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="bounds along a swept parameter")
    _add_channel_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=_SWEEPABLE)
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--scenario", choices=("1", "2", "both"), default="both")
    p_sweep.add_argument("--format", choices=("csv", "kv"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_thr = sub.add_parser("thresholds", help="scheme-advantage boundaries over C")
    p_thr.add_argument("--p", type=float, required=True)
    p_thr.add_argument("--g", type=float, required=True)
    p_thr.add_argument("--scenario", choices=("1", "2"), default="1")
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
        out = args.func(args)
    except (ParameterError, InvalidPmf, AsymmetricParams) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DiamondWiretapError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
