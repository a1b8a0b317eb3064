"""Output checks for the benchmark, written against the paper's formulas.

Every check recomputes what it needs from the closed forms below, which are
written here independently of the package, or tests a property the method
must have.  Nothing is compared with a stored copy of earlier output.  Each
checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances.  Reported optima come from a grid plus a 1e-12 refinement, so a
# re-evaluation at the reported rho agrees to round-off; a converse may sit
# below the dense-grid optimum only by round-off; ordering invariants carry
# the same 1e-7 slack as the package's own acceptance tests.
VALUE_TOL = 1e-9
CONVERSE_TOL = 1e-9
ORDER_TOL = 1e-7
SAME_TOL = 1e-9
DENSE_POINTS = 2**14 + 1


# --- closed forms f1..f7 (vectorized over rho) ------------------------------

def _s(p, r):
    return np.maximum(p.p1 + p.p2 + 2.0 * r * math.sqrt(p.p1 * p.p2), 0.0)


def f1(p, r):
    return p.c1 + 0.5 * np.log2(1.0 + (1.0 - r * r) * p.p2)


def f2(p, r):
    return p.c2 + 0.5 * np.log2(1.0 + (1.0 - r * r) * p.p1)


def f3(p, r):
    with np.errstate(divide="ignore"):
        return p.c1 + p.c2 + 0.5 * np.log2(np.maximum(1.0 - r * r, 0.0))


def f4(p, r):
    return 0.5 * np.log2(1.0 + _s(p, r))


def f5(p, r):
    return 0.5 * np.log2(1.0 + p.g * _s(p, r))


def f6(p, r):
    return 0.5 * np.log2((1.0 + p.g * _s(p, r)) / (1.0 + p.g * (1.0 - r * r) * p.p2))


def f7(p, r):
    return 0.5 * np.log2((1.0 + p.g * _s(p, r)) / (1.0 + p.g * (1.0 - r * r) * p.p1))


def rho_star(p):
    return math.sqrt(1.0 + 1.0 / (4.0 * p.p1 * p.p2)) - 1.0 / (2.0 * math.sqrt(p.p1 * p.p2))


def rho_bar(p):
    return 1.0 if p.p1 == p.p2 else (p.p1 + p.p2) / (2.0 * math.sqrt(p.p1 * p.p2))


def _min(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = np.minimum(out, t)
    return out


# --- the paper's term lists ------------------------------------------------
# Each branch: (interval rule, objective).  The objective is the minimum of
# the branch's terms at rho.

def _c(r, v):
    return v + 0.0 * np.asarray(r, dtype=float)


UPPER_BRANCHES = {
    "S1": (lambda p: (0.0, rho_star(p)),
           lambda p, r: _min(f1(p, r), f2(p, r), f3(p, r), f4(p, r))),
    "S2": (lambda p: (rho_star(p), 1.0),
           lambda p, r: _min(f1(p, r), f2(p, r), _c(r, f3(p, 0.0)), f4(p, r))),
    "S3": (lambda p: (0.0, rho_star(p)),
           lambda p, r: _min(f1(p, r), f2(p, r), _c(r, f3(p, 0.0)),
                             0.5 * (f3(p, r) + f4(p, r)), f4(p, r) - f5(p, r))),
    "S4": (lambda p: (rho_star(p), 1.0),
           lambda p, r: _min(f1(p, r), f2(p, r), _c(r, f3(p, 0.0)), f4(p, r) - f5(p, r))),
    "T1": (lambda p: (-rho_bar(p), 0.0),
           lambda p, r: _min(_c(r, f1(p, 0.0)), _c(r, f2(p, 0.0)),
                             _c(r, f3(p, 0.0)), f4(p, r)) - f5(p, r)),
    "T2": (lambda p: (0.0, rho_star(p)),
           lambda p, r: _min(f1(p, r), f2(p, r), f3(p, r), f4(p, r)) - f5(p, r)),
    "T3": (lambda p: (rho_star(p), 1.0),
           lambda p, r: _min(f1(p, r), f2(p, r), _c(r, f3(p, 0.0)), f4(p, r)) - f5(p, r)),
}


def _ind(p, r):
    return (p.c1 > f6(p, r)) & (p.c2 > f7(p, r))


# Raw (pre-clamp) scheme rates at rho.
SCHEMES = {
    "s1_df": lambda p, r: _min(_c(r, p.c1), _c(r, p.c2), f4(p, r) - f5(p, r)),
    "s1_pdfm": lambda p, r: _min(f1(p, r), f2(p, r), f3(p, r), f4(p, r) - f5(p, r)),
    "s2_df": lambda p, r: _min(_c(r, p.c1), _c(r, p.c2), f4(p, r)) - f5(p, r),
    "s2_pdfdfm": lambda p, r: _min(f1(p, r) - f5(p, r), f2(p, r) - f5(p, r),
                                   f3(p, r) - 2.0 * f5(p, r), f4(p, r) - f5(p, r)),
    "s2_pdfpdfm": lambda p, r: np.where(
        _ind(p, r), _min(f1(p, r), f2(p, r), f3(p, r), f4(p, r)) - f5(p, r),
        np.minimum(_min(f1(p, r), f2(p, r), f3(p, r), f4(p, r)) - f5(p, r), 0.0)),
}


def _at(fn, p, rho):
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(fn(p, np.float64(rho)))


def _close(a, b, tol):
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(b))


def dense_max(p, branch):
    interval, objective = UPPER_BRANCHES[branch]
    lo, hi = interval(p)
    grid = np.linspace(lo, hi, DENSE_POINTS)
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.max(objective(p, grid)))


# --- points ----------------------------------------------------------------

def _check_upper(p, report, names, combine, tag):
    errs = []
    subs = report.sub_reports
    for name in names:
        if name not in subs:
            errs.append(f"{tag}: branch {name} missing")
            continue
        opt = subs[name]
        lo, hi = UPPER_BRANCHES[name][0](p)
        if not lo - 1e-12 <= opt.rho <= hi + 1e-12:
            errs.append(f"{tag}: {name} rho={opt.rho!r} outside [{lo}, {hi}]")
        mine = _at(UPPER_BRANCHES[name][1], p, opt.rho)
        if not _close(opt.value, mine, VALUE_TOL):
            errs.append(f"{tag}: {name}={opt.value!r} but its terms give {mine!r} at rho={opt.rho!r}")
        dense = dense_max(p, name)
        if opt.value < dense - CONVERSE_TOL * max(1.0, abs(dense)):
            errs.append(f"{tag}: {name}={opt.value!r} below the dense-grid max {dense!r}")
    if errs:
        return errs
    value = combine({n: subs[n].value for n in names})
    if not _close(report.value, value, 0.0) or report.branch not in names \
            or subs[report.branch].value != report.value or subs[report.branch].rho != report.rho:
        errs.append(f"{tag}: reported {report.value!r} ({report.branch}) is not the branch combination {value!r}")
    return errs


def _check_scheme(p, r_prime, report, scheme, tag, lo, hi):
    if report.note is not None and report.value == 0.0 and not report.binding:
        return []  # a zero report with a diagnostic: nothing was achieved
    errs = []
    if not lo - 1e-12 <= report.rho <= hi + 1e-12:
        errs.append(f"{tag}: rho={report.rho!r} outside [{lo}, {hi}]")
    mine = _at(SCHEMES[scheme], p, report.rho)
    if not _close(report.raw_value, mine, VALUE_TOL):
        errs.append(f"{tag}: raw {report.raw_value!r} but the terms give {mine!r} at rho={report.rho!r}")
    if report.value != max(0.0, report.raw_value):
        errs.append(f"{tag}: value {report.value!r} is not max(0, raw={report.raw_value!r})")
    leak = _at(f5, p, report.rho)
    if leak > r_prime + 1e-12 * max(1.0, r_prime):
        errs.append(f"{tag}: achieving rho={report.rho!r} leaks f5={leak!r} above r'={r_prime!r}")
    return errs


def check_point(p, r_prime, b1, b2):
    """Scenario-1 and scenario-2 bounds at one parameter point."""
    errs = []
    errs += _check_upper(p, b1.upper, ("S1", "S2", "S3", "S4"),
                         lambda v: min(max(v["S1"], v["S2"]), max(v["S3"], v["S4"])), "ub1")
    errs += _check_upper(p, b2.upper, ("T1", "T2", "T3"),
                         lambda v: max(v["T1"], v["T2"], v["T3"]), "ub2")
    for b in (b1, b2):
        if b.rho_max is not None and _at(f5, p, b.rho_max) > r_prime + 1e-12 * max(1.0, r_prime):
            errs.append(f"rho_max={b.rho_max!r} leaks above r'={r_prime!r}")
    cap1 = b1.rho_max if b1.rho_max is not None else 1.0
    cap2 = b2.rho_max if b2.rho_max is not None else 1.0
    errs += _check_scheme(p, r_prime, b1.lower_df, "s1_df", "lb1_df", cap1, cap1)
    errs += _check_scheme(p, r_prime, b1.lower_pdf, "s1_pdfm", "lb1_pdf", 0.0, 0.0)
    errs += _check_scheme(p, r_prime, b1.lower_pdf_m, "s1_pdfm", "lb1_pdfm", min(0.0, cap1), cap1)
    errs += _check_scheme(p, r_prime, b2.lower_df, "s2_df", "lb2_df", -1.0, cap2)
    errs += _check_scheme(p, r_prime, b2.lower_pdf_df_m, "s2_pdfdfm", "lb2_pdfdfm", -1.0, cap2)
    errs += _check_scheme(p, r_prime, b2.lower_pdf_pdf_m, "s2_pdfpdfm", "lb2_pdfpdfm", -1.0, cap2)
    for tag, b, parts in (("lb1", b1, (b1.lower_df, b1.lower_pdf, b1.lower_pdf_m)),
                          ("lb2", b2, (b2.lower_df, b2.lower_pdf_df_m, b2.lower_pdf_pdf_m))):
        if b.lower != max(0.0, *(r.value for r in parts)):
            errs.append(f"{tag}={b.lower!r} is not the best scheme")
    if b1.lower > b1.upper.value + ORDER_TOL:
        errs.append(f"lb1={b1.lower!r} above ub1={b1.upper.value!r}")
    if b2.lower > b2.upper.value + ORDER_TOL:
        errs.append(f"lb2={b2.lower!r} above ub2={b2.upper.value!r}")
    if b2.lower > b1.lower + ORDER_TOL:
        errs.append(f"lb2={b2.lower!r} above lb1={b1.lower!r}")
    if b2.upper.value > b1.upper.value + ORDER_TOL:
        errs.append(f"ub2={b2.upper.value!r} above ub1={b1.upper.value!r}")
    if p.g == 0.0:
        if not _close(b1.lower, b2.lower, SAME_TOL) or not _close(b1.upper.value, b2.upper.value, SAME_TOL):
            errs.append(f"g = 0 but the scenarios differ: {b1.lower!r}/{b1.upper.value!r} vs "
                        f"{b2.lower!r}/{b2.upper.value!r}")
    return errs


# --- sweep -----------------------------------------------------------------

def parse_table(text, fmt):
    """Rows of a `sweep` output as dicts of strings."""
    if fmt == "csv":
        lines = text.strip("\n").split("\n")
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    rows = []
    for block in text.strip("\n").split("\n\n"):
        rows.append(dict(line.split(" = ", 1) for line in block.split("\n")))
    return rows


def check_sweep(op, returncode, stdout):
    """One `diamond-wiretap sweep` process: exit code, grid, ordering, monotonicity."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        rows = [{k: float(v) for k, v in row.items()} for row in parse_table(stdout, op["format"])]
    except ValueError as e:
        return [f"unparsable output: {e}"]
    errs = []
    if len(rows) != op["steps"]:
        return [f"{len(rows)} rows for {op['steps']} steps"]
    digits_tol = 1e-5 if op["format"] == "csv" else 1e-9  # 6 or 10 significant digits
    grid = np.linspace(op["from"], op["to"], op["steps"])
    for row, v in zip(rows, grid):
        if abs(row.get("swept_value", math.nan) - v) > digits_tol * max(1.0, abs(v)):
            errs.append(f"swept_value {row.get('swept_value')!r} is not the grid value {float(v)!r}")
    cols = {"1": ("ub1", "lb1"), "2": ("ub2", "lb2"), "both": ("ub1", "lb1", "ub2", "lb2")}[op["scenario"]]
    for i, row in enumerate(rows):
        missing = [c for c in (*cols, "nosecrecy_ub", "nosecrecy_lb") if c not in row]
        if missing:
            return errs + [f"row {i}: missing columns {missing}"]

        def le(a, b, what):
            if row[a] > row[b] + ORDER_TOL + digits_tol * max(1.0, abs(row[b])):
                errs.append(f"row {i}: {what}: {a}={row[a]!r} > {b}={row[b]!r}")

        if "ub1" in cols:
            le("lb1", "ub1", "lower above upper")
            le("ub1", "nosecrecy_ub", "secrecy bound above the no-eavesdropper bound")
        if "ub2" in cols:
            le("lb2", "ub2", "lower above upper")
        if "ub1" in cols and "ub2" in cols:
            le("ub2", "ub1", "scenario 2 above scenario 1")
            le("lb2", "lb1", "scenario 2 above scenario 1")
    # bounds are nondecreasing along c and nonincreasing along g
    direction = {"c": 1.0, "g": -1.0}.get(op["param"])
    if direction is not None:
        for col in (*cols, "nosecrecy_ub", "nosecrecy_lb"):
            for i in range(1, len(rows)):
                a, b = rows[i - 1][col], rows[i][col]
                slack = ORDER_TOL + digits_tol * max(1.0, abs(a), abs(b))
                if direction * (b - a) < -slack:
                    errs.append(f"{col} moves the wrong way along {op['param']}: {a!r} -> {b!r}")
    return errs


# --- analysis --------------------------------------------------------------

class _Sym:
    """Symmetric parameters P1 = P2, C1 = C2."""

    def __init__(self, power, c, g):
        self.p1 = self.p2 = power
        self.c1 = self.c2 = c
        self.g = g


def check_thresholds(op, report):
    errs = []
    a, b = set(report.schemes_a), set(report.schemes_b)
    cs = [cr.c for cr in report.crossings]
    if cs != sorted(cs) or any(not report.c_min < c < report.c_max for c in cs):
        errs.append(f"crossings {cs} not increasing inside ({report.c_min}, {report.c_max})")
    for cr in report.crossings:
        if not (a & set(cr.schemes) and b & set(cr.schemes)):
            errs.append(f"crossing at c={cr.c!r} ties {cr.schemes}, not one scheme of each group")
    if op.get("low_crossing"):
        p = _Sym(op["p"], 0.0, op["g"])
        want = 0.5 * (_at(f4, p, 0.0) - _at(f5, p, 0.0))
        if not cs or abs(cs[0] - want) > 1e-4:
            errs.append(f"low crossing {cs[:1]} is not (f4(0) - f5(0))/2 = {want!r}")
    return errs


def _bisect(fn, lo, hi, iters=200):
    """A root of fn on [lo, hi], where fn(lo) and fn(hi) differ in sign."""
    f_lo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The verdict is required one way only where the window and the auxiliary
# inequalities hold, or fail, by more than round-off.
DECIDE_TOL = 1e-9


def _decided(margin):
    return None if abs(margin) < DECIDE_TOL else margin > 0.0


def check_capacity(op, verdict):
    p = _Sym(op["p"], op["c"], op["g"])
    rs = rho_star(p)
    errs = []
    lower = 0.25 * math.log2(1.0 + 2.0 * p.p1)
    upper = 0.25 * math.log2(1.0 + 2.0 * (1.0 + rs) * p.p1) + 0.25 * math.log2(1.0 / (1.0 - rs * rs))
    if not _close(verdict.condition_lower, lower, 1e-12) or not _close(verdict.condition_upper, upper, 1e-12):
        errs.append(f"window [{verdict.condition_lower!r}, {verdict.condition_upper!r}] "
                    f"is not [{lower!r}, {upper!r}]")
    if not verdict.lower_value <= verdict.upper_value + ORDER_TOL:
        errs.append(f"lower bound {verdict.lower_value!r} above upper bound {verdict.upper_value!r}")

    # the paper's condition, recomputed: c inside the window, rho' the root of
    # f3 - f4 on [0, rho*], and one of the two auxiliary inequalities
    inside = _decided(min(p.c1 - lower, upper - p.c1))
    if inside is False:
        if verdict.applies:
            errs.append(f"verdict applies at c={p.c1!r} outside the window [{lower!r}, {upper!r}]")
        return errs
    rho = _bisect(lambda r: _at(f3, p, r) - _at(f4, p, r), 0.0, rs)
    cap = _at(f3, p, rho) - _at(f5, p, rho)
    aux = (cap - (_at(f1, p, rs) - _at(f5, p, rs)), cap - (_at(f3, p, 0.0) - _at(f5, p, rs)))
    holds = _decided(max(aux))
    if inside and holds is not None and verdict.applies != holds:
        errs.append(f"verdict applies={verdict.applies} at c={p.c1!r}, where the window and the "
                    f"auxiliary inequalities (margins {aux}) say {holds}")
    if verdict.applies:
        want = {(True, True): "both", (True, False): "f1", (False, True): "f3(0)"}.get((aux[0] >= 0.0, aux[1] >= 0.0))
        if verdict.auxiliary != want and min(abs(a) for a in aux) >= DECIDE_TOL:
            errs.append(f"auxiliary {verdict.auxiliary!r} is not {want!r}")
        if abs(verdict.rho_prime - rho) > 1e-9:
            errs.append(f"rho'={verdict.rho_prime!r} is not the root of f3 - f4, {rho!r}")
        if not _close(verdict.capacity, cap, VALUE_TOL):
            errs.append(f"capacity {verdict.capacity!r} is not f3(rho') - f5(rho') = {cap!r}")
        if abs(verdict.upper_value - cap) > 1e-6 or abs(verdict.lower_value - cap) > 1e-6:
            errs.append(f"bounds {verdict.lower_value!r}/{verdict.upper_value!r} do not meet {cap!r}")
    return errs


def check_pdf_gap(op, report):
    errs = []
    powers = [row.power for row in report.rows]
    if powers != [float(x) for x in op["powers"]]:
        errs.append("rows do not follow the requested powers")
    gaps = [row.gap for row in report.rows]
    if any(gap < -1e-9 for gap in gaps):
        errs.append(f"negative gap in {gaps}")
    if any(b > a + 1e-9 for a, b in zip(gaps, gaps[1:])):
        errs.append(f"gaps not nonincreasing: {gaps}")
    limit = 0.5 * math.log2(1.0 / op["g"])
    if not _close(report.mac_limit, limit, 1e-12):
        errs.append(f"mac_limit {report.mac_limit!r} is not (1/2)log2(1/g) = {limit!r}")
    for row in report.rows:
        p = _Sym(row.power, op["c"], op["g"])
        mac = _at(f4, p, 0.0) - _at(f5, p, 0.0)
        pdf = max(0.0, _at(SCHEMES["s1_pdfm"], p, 0.0))
        if not _close(row.mac_term, mac, VALUE_TOL) or not _close(row.pdf, pdf, VALUE_TOL):
            errs.append(f"P={row.power!r}: mac_term/pdf {row.mac_term!r}/{row.pdf!r} are not {mac!r}/{pdf!r}")
        if row.gap != row.upper - row.pdf or row.mac_term > limit:
            errs.append(f"P={row.power!r}: gap or mac_term inconsistent")
    return errs


def check_validation(op, report):
    errs = []
    if not report.passed or report.failures:
        errs.append(f"{len(report.failures)} closed-form identities failed")
    if report.trials != op["trials"] or report.checked + report.skipped != 7 * op["trials"]:
        errs.append(f"checked {report.checked} + skipped {report.skipped} for {op['trials']} trials")
    if not report.max_deviation <= report.tolerance:
        errs.append(f"max deviation {report.max_deviation!r} above {report.tolerance!r}")
    return errs
