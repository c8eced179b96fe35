"""Command line front end.

Subcommands map one-to-one onto the library modules; every run is
deterministic given its flags, so CSV/JSON outputs are byte-stable and
usable as regression artifacts. The library returns values and this module
alone turns them into text: it names the d or e vector of `coeffs` and
labels the `euler` series, `_print_csv` writes every CSV table but tau's,
which `cmd_tau` writes in chunks of rows, and `_print_json` every JSON
document, compact for tau and indented for the rest. A failed certificate
raises in the library before anything prints, so the verdicts of `coeffs`
and `identity` and the `improved` column of `exponents` print as the
constant True. `sums` returns bare checkpoints, fit coefficients and
residuals, and `partial-sum` labels them from its flags. The parser is
built once per process; SYMMOMENT_CACHE is read on every `main` call.
Only `tau`, `partial-sum` and float `euler` import `hecke` and `sums`, and
with them numpy; `coeffs`, `identity`, `exponents` and `euler --exact` run
on the exact core alone and never load it.
Exit codes: 0 success, 2 usage or domain error (an unusable --cache-dir
among them), 3 internal consistency failure, 4 capacity cap exceeded.
Every pair, cap and order check runs before any table is read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import combinatorics, euler, exponents
from .errors import CapacityError, ConsistencyError, FitError
from .symbolic import verify_decomposition

DEFAULT_N = 10_000

FORMATS = ("text", "csv", "json")


def _add_pair(sub, required=True):
    sub.add_argument("--l", type=int, required=required, help="moment exponent l")
    sub.add_argument("--j", type=int, required=required, help="symmetric power j")


def _add_common(sub):
    sub.add_argument("--format", choices=FORMATS, default="text")


def _add_form_opts(sub, limit=True):
    sub.add_argument("--weight", type=int, default=12, help="eigenform weight")
    if limit:
        sub.add_argument("--limit", type=int, default=DEFAULT_N, help="table size N")
    # None stands for SYMMOMENT_CACHE or ./cache, which main reads per call
    sub.add_argument("--cache-dir", help="q-expansion cache directory")


@functools.cache
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
    p.add_argument(
        "--order",
        type=int,
        default=euler.DEFAULT_ORDER,
        help=f"series order A, 0 <= A <= {euler.ORDER_CAP}",
    )
    p.add_argument("--exact", action="store_true", help="exact polynomial mode")
    # float mode sizes its table from --p, so euler takes no --limit
    _add_form_opts(p, limit=False)
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


def _print_csv(header, rows) -> None:
    """Header line, then one line per row: None as an empty field, else str(v)."""
    print(",".join(header))
    for row in rows:
        print(",".join("" if v is None else str(v) for v in row))


def _print_json(doc, indent=2) -> None:
    print(json.dumps(doc, indent=indent, sort_keys=True))


def cmd_coeffs(args) -> int:
    c = combinatorics.coeffs_bruteforce(args.l, args.j)
    combinatorics.check_coeffs(args.l, args.j, c)
    d = combinatorics.weights(args.l, args.j)
    kind = "E" if args.l * args.j % 2 else "D"
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "c": list(c),
                "diff_kind": kind,
                "diff": list(d),
                "palindromic": True,
                "unimodal": True,
                "total": sum(c),
            }
        )
    elif args.format == "csv":
        rows = [(m, cm, d[m] if m < len(d) else None) for m, cm in enumerate(c)]
        _print_csv(("m", "c", "diff"), rows)
    else:
        half = c[: len(d)]
        print(f"c: {' '.join(map(str, half))} | {kind.lower()}: {' '.join(map(str, d))}")
        print(f"palindromic: True  unimodal: True  total: {sum(c)}")
    return 0


def cmd_identity(args) -> int:
    lhs = verify_decomposition(args.l, args.j)
    deg = lhs(2)  # S_r(2) = r + 1: the certified identity at t = 2 is the degree
    w = combinatorics.weights(args.l, args.j)
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "holds": True,
                "degree": deg,
                "weights": list(w),
                "lhs_coeffs": list(lhs.coeffs),
            }
        )
    elif args.format == "csv":
        _print_csv(("l", "j", "holds", "degree"), [(args.l, args.j, True, deg)])
    else:
        print("decomposition holds: True")
        print(f"weights: {' '.join(map(str, w))}")
        print(f"degree: {deg} = (j+1)^l")
    return 0


def _exponent_text(report) -> str:
    lines = [
        f"l: {report.l}  j: {report.j}  parity: {report.parity}  D: {report.D}",
        f"theta: {report.theta!r}",
    ]
    if report.theta_star is not None:
        lines.append(f"theta_star: {report.theta_star!r}")
    if report.A is not None:
        lines.append(f"A: {report.A!r}  B: {report.B!r}")
    lines.append(f"T_exp: {report.saving!r}")
    if report.flags:
        lines.append(f"flags: {', '.join(report.flags)}")
    return "\n".join(lines)


def _report_row(report) -> dict:
    """The exponents row schema; previous/improved refer to the stored baseline,
    which `exponent_report` has already checked theta improves on."""
    prev = exponents.PREVIOUS_EXPONENTS.get((report.l, report.j))
    return {
        "l": report.l,
        "j": report.j,
        "parity": report.parity,
        "D": report.D,
        "theta": report.theta,
        "theta_star": report.theta_star,
        "previous": f"{prev.numerator}/{prev.denominator}" if prev else None,
        "improved": True if prev else None,
    }


def cmd_exponents(args) -> int:
    if args.table:
        reports = exponents.reference_table()
    elif args.l is None or args.j is None:
        raise ValueError("need --l and --j (or --table)")
    else:
        reports = [exponents.exponent_report(args.l, args.j)]
    rows = [_report_row(report) for report in reports]
    if args.format == "json":
        _print_json(rows)
    elif args.format == "csv":
        _print_csv(rows[0].keys(), (row.values() for row in rows))
    elif not args.table:
        print(_exponent_text(reports[0]))
    else:
        for row in rows:
            print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def cmd_euler(args) -> int:
    # before the float branch reads a table, so a rejected run stops at once
    euler.check(args.l, args.j, args.order)
    if args.exact:
        series = euler.correction_series_sym(args.l, args.j, args.order)
        label = f"correction_sym(l={args.l},j={args.j})"
        coeffs = [str(c) for c in series.coeffs]
    else:
        from . import hecke

        p = args.p
        n = max(p, 16)
        # the table gate comes first, so that trial division stays below
        # sqrt(HARD_CAP); p < 2 passes it here and is rejected as not prime
        hecke.check_table(args.weight, n)
        if not (p >= 2 and all(p % q for q in hecke.primes_up_to(math.isqrt(p)))):
            raise ValueError(f"--p must be prime, got {p}")
        form = hecke.cached_eigenform(args.weight, n, args.cache_dir)
        t = form.lam(p)
        series = euler.correction_series(args.l, args.j, t, args.order)
        label = f"correction(l={args.l},j={args.j},t={t})"
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
                "label": label,
            }
        )
    elif args.format == "csv":
        quoted = [f'"{cv}"' for cv in coeffs] if args.exact else coeffs
        _print_csv(("a", "coeff"), enumerate(quoted))
    else:
        print(f"correction series {label} to order {args.order}:")
        for a, cv in enumerate(coeffs):
            print(f"  X^{a}: {cv}")
    return 0


def cmd_tau(args) -> int:
    from . import hecke

    form = hecke.cached_eigenform(args.weight, args.limit, args.cache_dir)
    if args.format == "json":
        _print_json(
            {
                "weight": form.weight,
                "limit": form.limit,
                "a": [[n, form.raw[n]] for n in range(1, form.limit + 1)],
            },
            indent=None,
        )
    elif args.format == "csv":
        print("n,a_n")
        for lo in range(1, form.limit + 1, 1 << 16):  # one string per chunk of rows
            rows = enumerate(form.raw[lo : lo + (1 << 16)], lo)
            sys.stdout.write("".join([f"{n},{a}\n" for n, a in rows]))
    else:
        for n in range(1, form.limit + 1):
            print(f"a({n}) = {form.raw[n]}")
    return 0


def cmd_partial_sum(args) -> int:
    from . import hecke, sums

    combinatorics.check_pair(args.l, args.j)
    even = (args.l * args.j) % 2 == 0
    form = hecke.cached_eigenform(args.weight, args.limit, args.cache_dir)
    points = sums.partial_sum(args.l, args.j, form)
    coeffs = residuals = fit_note = None
    if even:
        try:
            coeffs, residuals = sums.fit_main_term(args.l, args.j, points)
        except FitError as exc:
            fit_note = str(exc)
    resid = sums.residual_exponent(points if residuals is None else residuals)
    if args.format == "json":
        _print_json(
            {
                "l": args.l,
                "j": args.j,
                "weight": args.weight,
                "limit": args.limit,
                "checkpoints": [[x, s] for x, s in points],
                "fit": None
                if coeffs is None
                else {
                    "degree": len(coeffs) - 1,
                    "coeffs": list(coeffs),
                    "residuals": [[x, e] for x, e in residuals],
                },
                "residual_exponent": None
                if resid is None
                else {"slope": resid[0], "stderr": resid[1], "points": resid[2]},
            }
        )
    elif args.format == "csv":
        if residuals is None:
            rows = [(x, s, None, None) for x, s in points]
        else:
            rows = [(x, s, s - e, e) for (x, s), (_, e) in zip(points, residuals)]
        _print_csv(("x", "S", "main_fit", "residual"), rows)
    else:
        print(f"S(x) for l={args.l} j={args.j} weight={args.weight} N={args.limit}")
        for x, s in points:
            print(f"  S({x}) = {s!r}")
        if coeffs is not None:
            print(f"fit degree {len(coeffs) - 1}: coeffs {[repr(c) for c in coeffs]}")
        elif fit_note is not None:
            print(f"fit unavailable: {fit_note}")
        if resid is not None:
            print(f"residual slope {resid[0]!r} stderr {resid[1]!r}")
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
    if getattr(args, "cache_dir", "") is None:
        args.cache_dir = os.environ.get("SYMMOMENT_CACHE", "./cache")
    try:
        return _DISPATCH[args.subcommand](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
