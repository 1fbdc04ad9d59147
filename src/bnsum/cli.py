"""Command-line front end.

Subcommands:
  eval      one series evaluation, JSON line on stdout
  sweep     CSV over an r grid comparing methods
  asym      asymptotic-form evaluation, optionally listing terms
  validate  run a check suite and write a JSON report

``--a`` is the signed weight exponent of (l+beta)^a; the integral
representations require a < 0 and internally work with alpha = -a.

Exit codes: 0 ok, 1 validation fail, 2 usage, 3 numeric or out of memory,
4 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

from .asymptotics import (
    AsymptoticForm,
    eval_form,
    leading_integer,
    leading_noninteger,
    leading_nonneg,
)
from .direct import EvalResult, SeriesSpec, check_inputs, sum_series
from .errors import BnsumError, ConvergenceError, DomainError, ToleranceError
from .harness import SUITES, run_suite
from .quadrature import eval_exp2d, eval_hankel, eval_hankel_grid, eval_lifted

_METHODS = ("oracle", "hankel", "exp2d", "lifted", "asym", "auto")
_REAL_FLAGS = ("--a", "--beta", "--r", "--r-start", "--r-end")
_SWEEP_TOL = 1e-10  # the tolerance of every method of a sweep


def _fmt(x: float) -> str:
    return "%.17g" % x


def _asym_form(spec: SeriesSpec) -> AsymptoticForm:
    if spec.a >= 0.0:
        return leading_nonneg(spec.a, spec.m, spec.m_prime)
    alpha = -spec.a
    if alpha == math.floor(alpha):
        return leading_integer(int(alpha), spec.beta, spec.m, spec.m_prime)
    return leading_noninteger(alpha, spec.beta, spec.m, spec.m_prime)


def _eval_asym(spec: SeriesSpec, r: float) -> EvalResult:
    form = _asym_form(spec)
    value = eval_form(form, r)  # rejects r = 0 before r ** -gamma divides by it
    err = r ** (-form.gamma_err) if math.isfinite(form.gamma_err) else 0.0
    return EvalResult(value, err, "asym", len(form.terms))


def _quad_tols(tol: float) -> dict[str, float]:
    return {"abs_tol": tol, "rel_tol": max(tol, 1e-12)}


def _evaluate(spec: SeriesSpec, r: float, method: str, tol: float) -> EvalResult:
    check_inputs(r, tol)  # the asym route has no check of its own
    if method == "auto":
        method = "oracle" if r <= 50.0 else "asym"
    if method == "oracle":
        return sum_series(spec, r, tol=tol)
    tols = _quad_tols(tol)
    if method == "hankel":
        return eval_hankel(spec, r, **tols)
    if method == "exp2d":
        return eval_exp2d(spec, r, **tols)
    if method == "lifted":
        return eval_lifted(spec, r, **tols)
    if method == "asym":
        return _eval_asym(spec, r)
    raise DomainError(f"unknown method {method!r}")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True,
                   help="weight exponent a in (l+beta)^a (the representations' alpha is -a)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mprime", type=int, required=True)


@functools.cache  # built on the first main() call, not at import; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bnsum", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the series once")
    _add_spec_flags(p_eval)
    p_eval.add_argument("--r", type=float, required=True)
    p_eval.add_argument("--method", choices=_METHODS, default="auto")
    p_eval.add_argument("--tol", type=float, default=1e-10)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over an r grid")
    _add_spec_flags(p_sweep)
    p_sweep.add_argument("--r-start", type=float, required=True)
    p_sweep.add_argument("--r-end", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log-grid", action="store_true")
    p_sweep.add_argument("--methods", default="oracle,hankel,lifted,asym",
                         help="comma-separated subset of oracle,hankel,lifted,asym")
    p_sweep.add_argument("--out", required=True)

    p_asym = sub.add_parser("asym", help="evaluate the asymptotic form")
    _add_spec_flags(p_asym)
    p_asym.add_argument("--r", type=float, required=True)
    p_asym.add_argument("--show-terms", action="store_true")

    p_val = sub.add_parser("validate", help="run a validation suite")
    p_val.add_argument("--suite", choices=SUITES, default="all")
    p_val.add_argument("--report", default=None, help="path for the JSON report")
    return ap


def _cmd_eval(args) -> int:
    spec = SeriesSpec(args.a, args.beta, args.m, args.mprime)
    res = _evaluate(spec, args.r, args.method, args.tol)
    print(json.dumps({
        "value": res.value, "err_est": res.err_est,
        "method": res.method, "work": res.work,
    }))
    return 0


def _sweep_row(spec: SeriesSpec, r: float, methods: list[str],
               hankel: EvalResult | None) -> dict[str, float]:
    row: dict[str, float] = {"r": r}
    if hankel is not None:
        row["hankel"] = hankel.value
    for method in methods:
        if method == "hankel":
            continue  # evaluated for the whole grid at once
        if method == "lifted" and spec.a < 0.0:
            continue
        if method == "asym" and r <= 0.0:
            continue
        try:
            row[method] = _evaluate(spec, r, method, _SWEEP_TOL).value
        except (ConvergenceError, ToleranceError):
            pass  # leave the field empty
    return row


def _cmd_sweep(args) -> int:
    spec = SeriesSpec(args.a, args.beta, args.m, args.mprime)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("oracle", "hankel", "lifted", "asym"):
            raise DomainError(f"unknown sweep method {m!r}")
    if args.points < 1:
        raise DomainError("--points must be >= 1")
    if args.log_grid:
        if not (0.0 < args.r_start < math.inf and 0.0 < args.r_end < math.inf):
            raise DomainError("--log-grid requires finite --r-start > 0 and --r-end > 0")
        ratio = (args.r_end / args.r_start) ** (1.0 / max(1, args.points - 1))
        rs = [args.r_start * ratio ** k for k in range(args.points)]
    else:
        step = (args.r_end - args.r_start) / max(1, args.points - 1)
        rs = [args.r_start + step * k for k in range(args.points)]
    for r in rs:
        check_inputs(r)

    hankel: list[EvalResult | None] = [None] * len(rs)
    if "hankel" in methods and spec.a < 0.0:
        try:
            hankel = eval_hankel_grid(spec, rs, **_quad_tols(_SWEEP_TOL))
        except ConvergenceError:
            pass  # a failure of the whole grid leaves the column empty
    rows = [_sweep_row(spec, r, methods, h) for r, h in zip(rs, hankel)]

    def cell(row, key):
        return _fmt(row[key]) if key in row else ""

    lines = ["r,oracle,hankel,lifted,asym,diff_oracle_hankel,diff_oracle_asym"]
    for row in rows:
        diff_h = (_fmt(abs(row["oracle"] - row["hankel"]))
                  if "oracle" in row and "hankel" in row else "")
        diff_a = (_fmt(abs(row["oracle"] - row["asym"]))
                  if "oracle" in row and "asym" in row else "")
        lines.append(",".join([
            _fmt(row["r"]), cell(row, "oracle"), cell(row, "hankel"),
            cell(row, "lifted"), cell(row, "asym"), diff_h, diff_a,
        ]))
    try:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _cmd_asym(args) -> int:
    spec = SeriesSpec(args.a, args.beta, args.m, args.mprime)
    check_inputs(args.r)
    form = _asym_form(spec)
    out = {
        "value": eval_form(form, args.r),
        "gamma_err": form.gamma_err if math.isfinite(form.gamma_err) else None,
        "strict": form.strict,
    }
    if args.show_terms:
        out["terms"] = [
            {"coeff": t.coeff, "power": t.power, "osc": t.osc, "phase": t.phase}
            for t in form.terms
        ]
    print(json.dumps(out))
    return 0


def _cmd_validate(args) -> int:
    rep = run_suite(args.suite)
    payload = json.dumps(dataclasses.asdict(rep), indent=2) + "\n"
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(payload)
    for c in rep.checks:
        print(f"{c.status:4s} {c.name} residual={c.residual:.3e} tol={c.tolerance:.1e}",
              file=sys.stderr)
    return 0 if rep.passed else 1


def _attach_negative_reals(argv: list[str]) -> list[str]:
    """``--a -1e-5`` as ``--a=-1e-5``: argparse takes a value that starts with
    "-" only in the forms -1 and -1.5, and reads -1e-5 as an unknown flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _REAL_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(_attach_negative_reals(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "asym":
            return _cmd_asym(args)
        return _cmd_validate(args)
    except (ConvergenceError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory in bnsum {args.command}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # a float power or math function out of range
        print(f"error: overflow in bnsum {args.command}: {exc}", file=sys.stderr)
        return 3
    except (DomainError, BnsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
