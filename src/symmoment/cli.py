"""Command line front end.

Subcommands map one-to-one onto the library modules; every run is
deterministic given its flags, so CSV/JSON outputs are byte-stable and
usable as regression artifacts. The library returns values and this module
alone turns them into text: `coeffs`, `identity`, `exponents`, `euler` and
`partial-sum` build their JSON document, CSV rows and text lines once, and
`_emit` prints the one `--format` asks for. `tau` writes its own: its output
is O(N), and the benchmark's `cached` workload times its CSV, which is
streamed in chunks of rows. A failed certificate raises in the library
before anything prints, so the verdicts of `coeffs` and `identity` and the
`improved` column of `exponents` print as the constant True. Only `tau`,
`partial-sum` and float `euler` import `hecke` and `sums`, and with them
numpy; `coeffs`, `identity`, `exponents` and `euler --exact` never do.
Exit codes: 0 success, 2 usage or domain error (an unusable --cache-dir, or
`exponents --table` with --l or --j, or `euler --exact` with --p or
--weight), 3
internal consistency failure, 4 capacity cap exceeded. Every pair, cap and
order check runs before any table is read.
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


def _add_form_opts(sub):
    sub.add_argument("--weight", type=int, default=12, help="eigenform weight")
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

    p = sub.add_parser("identity", help="certify the basis decomposition and degree")
    _add_pair(p)

    p = sub.add_parser("exponents", help="error exponents; single pair or both tables")
    _add_pair(p, required=False)
    p.add_argument("--table", action="store_true", help="emit the 14 comparison rows")

    p = sub.add_parser("euler", help="local factor correction series at a prime")
    _add_pair(p)
    # None so that --exact can refuse a --p given with it; float mode uses 2
    p.add_argument("--p", type=int, help="prime for the local factor")
    p.add_argument(
        "--order",
        type=int,
        default=euler.DEFAULT_ORDER,
        help=f"series order A, 0 <= A <= {euler.ORDER_CAP}",
    )
    p.add_argument("--exact", action="store_true", help="exact polynomial mode")
    # float mode sizes its table from --p, so euler takes no --limit, and
    # --weight is None so that --exact can refuse it too; float mode uses 12
    p.add_argument("--weight", type=int, help="eigenform weight")
    # exact mode reads no cache, but takes --cache-dir so one command line serves both modes
    p.add_argument("--cache-dir", help="q-expansion cache directory")

    p = sub.add_parser("tau", help="eigenform q-expansion table")
    _add_form_opts(p)

    p = sub.add_parser("partial-sum", help="checkpointed moment partial sums")
    _add_pair(p)
    _add_form_opts(p)

    for p in sub.choices.values():  # last, so --format ends every usage line
        p.add_argument("--format", choices=FORMATS, default="text")
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _emit(fmt, doc, header, rows, lines) -> int:
    """Print the format asked for and return 0: `doc` as indented JSON, or
    `header` and `rows` as CSV with None as an empty field, or `lines` as text.
    Only that format is read: `coeffs`, `identity` and `exponents` pass
    generators, as building their text first made JSON runs 5-7% slower (2 CPUs)."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join("" if v is None else str(v) for v in row))
    else:
        print(*lines, sep="\n")
    return 0


def cmd_coeffs(args) -> int:
    c = combinatorics.coeffs_bruteforce(args.l, args.j)
    combinatorics.check_coeffs(args.l, args.j, c)
    d = combinatorics.weights(args.l, args.j)
    kind = "E" if args.l * args.j % 2 else "D"
    doc = {
        "l": args.l,
        "j": args.j,
        "c": list(c),
        "diff_kind": kind,
        "diff": list(d),
        "palindromic": True,
        "unimodal": True,
        "total": sum(c),
    }
    rows = ((m, cm, d[m] if m < len(d) else None) for m, cm in enumerate(c))

    def lines():
        yield f"c: {' '.join(map(str, c[: len(d)]))} | {kind.lower()}: {' '.join(map(str, d))}"
        yield f"palindromic: True  unimodal: True  total: {sum(c)}"

    return _emit(args.format, doc, ("m", "c", "diff"), rows, lines())


def cmd_identity(args) -> int:
    lhs = verify_decomposition(args.l, args.j)
    deg = lhs(2)  # S_r(2) = r + 1: the certified identity at t = 2 is the degree
    w = combinatorics.weights(args.l, args.j)
    doc = {
        "l": args.l,
        "j": args.j,
        "holds": True,
        "degree": deg,
        "weights": list(w),
        "lhs_coeffs": list(lhs.coeffs),
    }
    rows = [(args.l, args.j, True, deg)]

    def lines():
        yield "decomposition holds: True"
        yield f"weights: {' '.join(map(str, w))}"
        yield f"degree: {deg} = (j+1)^l"

    return _emit(args.format, doc, ("l", "j", "holds", "degree"), rows, lines())


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
        if args.l is not None or args.j is not None:
            raise ValueError("--table takes no --l or --j")
        reports = exponents.reference_table()
    elif args.l is None or args.j is None:
        raise ValueError("need --l and --j (or --table)")
    else:
        reports = [exponents.exponent_report(args.l, args.j)]
    rows = [_report_row(report) for report in reports]

    def lines():
        if args.table:
            yield from (" ".join(f"{k}={v}" for k, v in row.items()) for row in rows)
            return
        r = reports[0]
        yield f"l: {r.l}  j: {r.j}  parity: {r.parity}  D: {r.D}"
        yield f"theta: {r.theta!r}"
        if r.theta_star is not None:
            yield f"theta_star: {r.theta_star!r}"
        if r.A is not None:
            yield f"A: {r.A!r}  B: {r.B!r}"
        yield f"T_exp: {r.saving!r}"
        if r.flags:
            yield f"flags: {', '.join(r.flags)}"

    return _emit(args.format, rows, rows[0].keys(), (row.values() for row in rows), lines())


def cmd_euler(args) -> int:
    if args.exact and args.p is not None:
        raise ValueError("--exact takes no --p")
    if args.exact and args.weight is not None:
        raise ValueError("--exact takes no --weight")
    # before the float branch reads a table, so a rejected run stops at once
    euler.check(args.l, args.j, args.order)
    if args.exact:
        series = euler.correction_series_sym(args.l, args.j, args.order)
        label = f"correction_sym(l={args.l},j={args.j})"
        coeffs = [str(c) for c in series.coeffs]
        cells = (f'"{cv}"' for cv in coeffs)
        p = None
    else:
        from . import hecke

        p = 2 if args.p is None else args.p
        weight = 12 if args.weight is None else args.weight
        n = max(p, 16)
        # the table gate comes first, so that trial division stays below
        # sqrt(HARD_CAP); p < 2 passes it here and is rejected as not prime
        hecke.check_table(weight, n)
        if not (p >= 2 and all(p % q for q in hecke.primes_up_to(math.isqrt(p)))):
            raise ValueError(f"--p must be prime, got {p}")
        form = hecke.cached_eigenform(weight, n, args.cache_dir)
        t = form.lam(p)
        series = euler.correction_series(args.l, args.j, t, args.order)
        label = f"correction(l={args.l},j={args.j},t={t})"
        coeffs = cells = list(series.coeffs)
    doc = {
        "l": args.l,
        "j": args.j,
        "exact": bool(args.exact),
        "p": p,
        "order": args.order,
        "coeffs": coeffs,
        "label": label,
    }
    lines = [f"correction series {label} to order {args.order}:"]
    lines += [f"  X^{a}: {cv}" for a, cv in enumerate(coeffs)]
    return _emit(args.format, doc, ("a", "coeff"), enumerate(cells), lines)


def cmd_tau(args) -> int:
    from . import hecke

    form = hecke.cached_eigenform(args.weight, args.limit, args.cache_dir)
    if args.format == "json":
        a = [[n, form.raw[n]] for n in range(1, form.limit + 1)]
        print(json.dumps({"weight": form.weight, "limit": form.limit, "a": a}, sort_keys=True))
    elif args.format == "csv":
        print("n,a_n")
        for lo in range(1, form.limit + 1, 1 << 16):
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
    doc = {
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
    if residuals is None:
        rows = ((x, s, None, None) for x, s in points)
    else:
        rows = ((x, s, s - e, e) for (x, s), (_, e) in zip(points, residuals))
    lines = [f"S(x) for l={args.l} j={args.j} weight={args.weight} N={args.limit}"]
    lines += [f"  S({x}) = {s!r}" for x, s in points]
    if coeffs is not None:
        lines.append(f"fit degree {len(coeffs) - 1}: coeffs {[repr(c) for c in coeffs]}")
    elif fit_note is not None:
        lines.append(f"fit unavailable: {fit_note}")
    if resid is not None:
        lines.append(f"residual slope {resid[0]!r} stderr {resid[1]!r}")
    return _emit(args.format, doc, ("x", "S", "main_fit", "residual"), rows, lines)


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
