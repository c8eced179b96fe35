"""Command line front end.

Subcommands map one-to-one onto the library modules; every run is
deterministic given its flags, so CSV/JSON outputs are byte-stable and
usable as regression artifacts. Exit codes: 0 success, 2 usage or domain
error, 3 internal consistency failure, 4 capacity cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import combinatorics, euler, exponents, hecke, sums
from .errors import CapacityError, ConsistencyError, FitError
from .symbolic import verify_decomposition

DEFAULT_N = 10_000

FORMATS = ("text", "csv", "json")


def _add_pair(sub, required=True):
    sub.add_argument("--l", type=int, required=required, help="moment exponent l")
    sub.add_argument("--j", type=int, required=required, help="symmetric power j")


def _add_common(sub):
    sub.add_argument("--format", choices=FORMATS, default="text")


def _add_form_opts(sub):
    sub.add_argument("--weight", type=int, default=12, help="eigenform weight")
    sub.add_argument("--limit", type=int, default=DEFAULT_N, help="table size N")
    cache = os.environ.get("SYMMOMENT_CACHE", "./cache")
    sub.add_argument("--cache-dir", default=cache, help="q-expansion cache directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmoment",
        description="moments of symmetric-power Hecke eigenvalues: "
        "coefficients, identities, exponents, and empirical sums",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", help="composition-count vector and differences")
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("identity", help="certify the basis decomposition and degree")
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("exponents", help="error exponents; single pair or both tables")
    _add_pair(p, required=False)
    p.add_argument("--table", action="store_true", help="emit the 14 comparison rows")
    _add_common(p)

    p = sub.add_parser("euler", help="local factor correction series at a prime")
    _add_pair(p)
    p.add_argument("--p", type=int, default=2, help="prime for the local factor")
    p.add_argument("--order", type=int, default=euler.DEFAULT_ORDER)
    p.add_argument("--exact", action="store_true", help="exact polynomial mode")
    _add_form_opts(p)
    _add_common(p)

    p = sub.add_parser("tau", help="eigenform q-expansion table")
    _add_form_opts(p)
    _add_common(p)

    p = sub.add_parser("partial-sum", help="checkpointed moment partial sums")
    _add_pair(p)
    _add_form_opts(p)
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_coeffs(args) -> int:
    c = combinatorics.coeffs_bruteforce(args.l, args.j)
    c2 = combinatorics.coeffs_closed_form(args.l, args.j)
    if c.values != c2.values:
        raise ConsistencyError("closed form disagrees with convolution oracle")
    d = combinatorics.diff_coeffs(c)
    rep = combinatorics.structure_report(c)
    half = c.values[: c.half + 1]
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "c": list(c.values),
                "diff_kind": d.kind.value,
                "diff": list(d.values),
                "palindromic": rep.palindromic,
                "unimodal": rep.unimodal,
                "total": rep.total,
            }
        )
    elif args.format == "csv":
        print("m,c,diff")
        for m, cm in enumerate(c.values):
            dm = d.values[m] if m < len(d.values) else ""
            print(f"{m},{cm},{dm}")
    else:
        label = d.kind.value.lower()
        print(f"c: {' '.join(map(str, half))} | {label}: {' '.join(map(str, d.values))}")
        print(
            f"palindromic: {rep.palindromic}  unimodal: {rep.unimodal}  total: {rep.total}"
        )
    return 0


def cmd_identity(args) -> int:
    cert = verify_decomposition(args.l, args.j)
    deg = euler.degree(args.l, args.j)
    if not cert.holds:
        raise ConsistencyError(f"decomposition fails at (l={args.l}, j={args.j})")
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "holds": cert.holds,
                "degree": deg,
                "weights": list(cert.weights),
                "lhs_coeffs": list(cert.lhs.coeffs),
            }
        )
    elif args.format == "csv":
        print("l,j,holds,degree")
        print(f"{args.l},{args.j},{cert.holds},{deg}")
    else:
        print(f"decomposition holds: {cert.holds}")
        print(f"weights: {' '.join(map(str, cert.weights))}")
        print(f"degree: {deg} = (j+1)^l")
    return 0


def _exponent_text(report) -> str:
    lines = [
        f"l: {report.l}  j: {report.j}  parity: {report.parity.value}  D: {report.D}",
        f"theta: {report.theta!r}",
    ]
    if report.theta_star is not None:
        lines.append(f"theta_star: {report.theta_star!r}")
    if report.A is not None:
        lines.append(f"A: {report.A!r}  B: {report.B!r}")
    lines.append(f"T_exp: {report.T_exp!r}")
    if report.flags:
        lines.append(f"flags: {', '.join(report.flags)}")
    return "\n".join(lines)


def cmd_exponents(args) -> int:
    if args.table:
        pairs = [(row.l, row.j) for row in exponents.reference_table()]
    elif args.l is None or args.j is None:
        raise ValueError("need --l and --j (or --table)")
    else:
        pairs = [(args.l, args.j)]
    reports = [exponents.exponent_report(l, j) for l, j in pairs]
    rows = [exponents.report_row(report) for report in reports]
    if args.format == "json":
        print(exponents.rows_to_json(rows), end="")
    elif args.format == "csv":
        print(exponents.rows_to_csv(rows), end="")
    elif not args.table:
        print(_exponent_text(reports[0]))
    else:
        for row in rows:
            print(
                f"l={row['l']} j={row['j']} parity={row['parity']} D={row['D']} "
                f"theta={row['theta']!r} theta_star={row['theta_star']!r} "
                f"previous={row['previous']} improved={row['improved']}"
            )
    return 0


def cmd_euler(args) -> int:
    if args.order < 0:
        raise ValueError(f"--order must be nonnegative, got {args.order}")
    if args.exact:
        series = euler.correction_series_sym(args.l, args.j, args.order)
        coeffs = [str(c) for c in series.coeffs]
    else:
        p = args.p
        # the cap comes first, so that trial division stays below sqrt(HARD_CAP);
        # p < 2 passes it here and is rejected as not prime
        hecke._check_limit(max(p, 1))
        if not (p >= 2 and all(p % q for q in hecke.primes_up_to(math.isqrt(p)))):
            raise ValueError(f"--p must be prime, got {p}")
        form = hecke.cached_eigenform(args.weight, max(p, 16), args.cache_dir)
        series = euler.correction_series(args.l, args.j, form.normalized[p], args.order)
        coeffs = list(series.coeffs)
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "exact": bool(args.exact),
                "p": None if args.exact else args.p,
                "order": args.order,
                "coeffs": coeffs,
                "label": series.label,
            }
        )
    elif args.format == "csv":
        print("a,coeff")
        for a, cv in enumerate(coeffs):
            print(f"{a},{cv!r}" if not args.exact else f'{a},"{cv}"')
    else:
        print(f"correction series {series.label} to order {args.order}:")
        for a, cv in enumerate(coeffs):
            print(f"  X^{a}: {cv!r}" if not args.exact else f"  X^{a}: {cv}")
    return 0


def cmd_tau(args) -> int:
    form = hecke.cached_eigenform(args.weight, args.limit, args.cache_dir)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "weight": form.weight,
                    "limit": form.limit,
                    "a": [[n, form.raw[n]] for n in range(1, form.limit + 1)],
                },
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        print("n,a_n")
        for n in range(1, form.limit + 1):
            print(f"{n},{form.raw[n]}")
    else:
        for n in range(1, form.limit + 1):
            print(f"a({n}) = {form.raw[n]}")
    return 0


def cmd_partial_sum(args) -> int:
    form = hecke.cached_eigenform(args.weight, args.limit, args.cache_dir)
    series = sums.partial_sum(args.l, args.j, args.limit, form)
    fit = None
    fit_note = None
    if (args.l * args.j) % 2 == 0:
        try:
            fit = sums.fit_main_term(series)
        except (FitError, ValueError) as exc:
            # ValueError covers the l = 1 case, where the main-term degree
            # degenerates to -1 and there is nothing to fit
            fit_note = str(exc)
    resid = sums.residual_exponent(series, fit)
    if args.format == "json":
        print(sums.series_to_json(series, fit, resid), end="")
    elif args.format == "csv":
        print(sums.series_to_csv(series, fit), end="")
    else:
        print(f"S(x) for l={args.l} j={args.j} weight={args.weight} N={args.limit}")
        for x, s in series.checkpoints:
            print(f"  S({x}) = {s!r}")
        if fit is not None:
            print(f"fit degree {fit.degree}: coeffs {[repr(c) for c in fit.coeffs]}")
        elif fit_note is not None:
            print(f"fit unavailable: {fit_note}")
        if resid is not None:
            print(f"residual slope {resid.slope!r} stderr {resid.stderr!r}")
    return 0


_DISPATCH = {
    "coeffs": cmd_coeffs,
    "identity": cmd_identity,
    "exponents": cmd_exponents,
    "euler": cmd_euler,
    "tau": cmd_tau,
    "partial-sum": cmd_partial_sum,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
