"""Command-line interface.

Five subcommands, one certification task each:

    poly     print one polynomial (rational or integer-normalized form)
    verify   cross-check the hook-length identities over a range of n
    roots    square-freeness, real-root counts, isolation, Hurwitz test
    pf       Polya frequency verdict with an explicit minor witness
    shape    unimodality / log-concavity / ultra-log-concavity table

Reports are JSON lines (CSV for shape) with sorted keys: identical
inputs give byte-identical output except for the timings field.

Exit codes: 0 = certified / all checks passed, 1 = a mathematical check
failed, 2 = bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import cache as cache_mod
from . import pf_tnn, polynomials, rootcert, shape
from .cache import CacheError
from .exactnum import ExactPoly, poly_divmod, primitive_int_coeffs
from .reports import ARTIFACT_VERSION, CertReport

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

SHAPE_DESK_LIMIT = 300
SHAPE_FULL_LIMIT = 1000

CONJECTURE_ROUTES = {
    "1": ("trivial_legs",),
    "no": ("full_hooks",),
    "corollary": ("trivial_arms", "binomials"),
}


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


# -- shared helpers ----------------------------------------------------------


def _cache_path(value: str) -> str:
    """Parser type of --cache: the file may be missing, its directory not."""
    if not Path(value).parent.is_dir():
        raise argparse.ArgumentTypeError(f"{value}: directory does not exist")
    return value


def _resolve_cache_path(args: argparse.Namespace) -> str | None:
    """The cache file from --cache or else the environment.  The --cache
    rule holds for both: the file may be missing, its directory not."""
    path = getattr(args, "cache", None)
    if path:
        return path  # the parser has checked its directory
    path = cache_mod.default_cache_path()
    if path and not Path(path).parent.is_dir():
        raise UsageError(
            f"{cache_mod.CACHE_ENV_VAR}={path}: directory does not exist"
        )
    return path


def _maybe_load_cache(args: argparse.Namespace) -> int:
    """Seed the memo from the resolved cache file, if it exists; returns
    the number of records loaded."""
    path = args._cache_path
    if path and Path(path).exists():
        return cache_mod.load_into_memo(path)
    return 0


def _parse_poly_argument(value: str) -> ExactPoly:
    """Accept either a file of coefficients or an inline token string.

    Tokens are rationals ("num/den" or plain integers), constant term
    first, whitespace separated.
    """
    source = value
    origin = "argument"
    if os.path.exists(value):
        origin = f"file {value}"
        try:
            source = Path(value).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read polynomial {origin}: {exc}")
    try:
        return ExactPoly.from_text(source)
    except ValueError as exc:
        raise UsageError(f"polynomial parse failure in {origin}, line 1: {exc}")


def _parse_rationals_csv(value: str, what: str) -> list[Fraction]:
    out = []
    for pos, tok in enumerate(value.split(","), start=1):
        try:
            out.append(Fraction(tok.strip()))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"invalid {what} entry {pos}: {tok!r}")
    return out


def _print_report(report: CertReport) -> None:
    sys.stdout.write(report.to_json() + "\n")


# -- poly --------------------------------------------------------------------


def cmd_poly(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise UsageError("--n must be nonnegative")
    loaded = _maybe_load_cache(args)
    if args.normalized and n < 1:
        raise UsageError("normalized records are defined for n >= 1")
    if args.normalized:
        coeffs = (
            polynomials.q_scaled_coeffs(n) if args.shifted
            else polynomials.darcais_record(n).numer_coeffs
        )
        print(" ".join(str(c) for c in coeffs))
    else:
        poly = polynomials.q_poly(n) if args.shifted else polynomials.darcais_poly(n)
        if poly.is_zero:
            print("0")
        else:
            print(" ".join(str(c) for c in poly.coeffs))
    if args._cache_path and n > loaded:
        cache_mod.write_cache(args._cache_path, n)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _parse_injection(value: str) -> dict[str, tuple[int, Fraction]]:
    parts = value.split(":")
    if len(parts) not in (2, 3):
        raise UsageError("--inject-error expects ROUTE:INDEX[:DELTA]")
    route, index = parts[0], parts[1]
    delta = parts[2] if len(parts) == 3 else "1"
    if route not in polynomials.ROUTE_NAMES:
        raise UsageError(f"unknown route {route!r} in --inject-error")
    try:
        return {route: (int(index), Fraction(delta))}
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --inject-error value {value!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    _maybe_load_cache(args)
    routes = CONJECTURE_ROUTES[args.conjecture]
    bounds = dict(polynomials.DEFAULT_ROUTE_BOUNDS)
    over = [r for r in routes if args.max_n > bounds[r]]
    if over and not args.force:
        listed = ", ".join(f"{r} (bound {bounds[r]})" for r in over)
        raise UsageError(
            f"--max-n {args.max_n} exceeds the feasibility bound for: {listed}; "
            "pass --force to compute anyway"
        )
    if args.force:
        for r in routes:
            bounds[r] = max(bounds[r], args.max_n)
    tamper = _parse_injection(args.inject_error) if args.inject_error else None
    if tamper and not tamper.keys() <= set(routes):
        (route,) = tamper
        raise UsageError(
            f"--inject-error route {route!r} is not run by --conjecture "
            f"{args.conjecture}, which runs: {', '.join(routes)}"
        )
    for n in range(1, args.max_n + 1):
        report = polynomials.verify_identity(
            n, routes=routes, bounds=bounds, tamper=tamper
        )
        _print_report(report)
        if not report.passed:
            return EXIT_MATH_FAIL
    return EXIT_OK


# -- roots -------------------------------------------------------------------


def cmd_roots(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.poly is None):
        raise UsageError("choose exactly one of --n or --poly")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        _maybe_load_cache(args)
        coeffs = polynomials.darcais_record(args.n).numer_coeffs
        target: dict = {"n": args.n, "polynomial": "normalized P_n numerator / x"}
    else:
        poly = _parse_poly_argument(args.poly)
        if poly.is_zero:
            raise UsageError("the zero polynomial has no root certificate")
        coeffs = tuple(primitive_int_coeffs(poly.coeffs))
        target = {"coeffs": poly.to_text()}

    details: dict = {"degree": len(coeffs) - 1}
    witnesses: list[dict] = []
    verdict = "pass"
    timings: dict[str, float] = {}

    # deg p - t distinct roots, t = deg gcd(p, p'), which is 0 when p is
    # square free; the root counts run on the square-free part
    start = time.perf_counter()
    square_free = rootcert.is_square_free(coeffs)
    distinct = len(rootcert.square_free_part(coeffs)) - 1
    details["square_free"] = square_free
    timings["square_free"] = time.perf_counter() - start

    start = time.perf_counter()
    real_count = rootcert.count_real_roots(coeffs)
    details["real_root_count"] = real_count
    details["nonreal_pair_count"] = (distinct - real_count) // 2
    details["all_real_roots_negative"] = rootcert.all_real_roots_negative(coeffs)
    timings["count"] = time.perf_counter() - start

    if args.isolate:
        width = Fraction(args.max_width)
        start = time.perf_counter()
        intervals = rootcert.isolate_real_roots(coeffs, max_width=width)
        timings["isolate"] = time.perf_counter() - start
        details["intervals"] = [
            {"lower": str(iv.lower), "upper": str(iv.upper), "count": iv.count}
            for iv in intervals
        ]
        if len(intervals) != real_count:
            verdict = "fail"
            witnesses.append(
                {
                    "check": "isolation count",
                    "expected": real_count,
                    "actual": len(intervals),
                }
            )

    if args.hurwitz:
        if coeffs[0] == 0:
            raise UsageError(
                "polynomial has a root at the origin; divide it out before --hurwitz"
            )
        start = time.perf_counter()
        routh = rootcert.hurwitz_stable(coeffs)
        timings["routh"] = time.perf_counter() - start
        details["hurwitz"] = {
            "stable": routh.stable,
            "marginal": routh.marginal,
            "stage": routh.stage,
        }
        if routh.stable and not details["all_real_roots_negative"]:
            verdict = "fail"
            witnesses.append(
                {
                    "check": "hurwitz vs sturm",
                    "detail": "stable verdict but a real root >= 0 was counted",
                }
            )

    report = CertReport(
        kind="roots", target=target, verdict=verdict,
        details=details, witnesses=witnesses, timings=timings,
    )
    _print_report(report)
    return EXIT_OK if verdict == "pass" else EXIT_MATH_FAIL


# -- pf ----------------------------------------------------------------------


def cmd_pf(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.coeffs is None):
        raise UsageError("choose exactly one of --n or --coeffs")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        _maybe_load_cache(args)
        values = polynomials.darcais_record(args.n).numer_coeffs
        target: dict = {"n": args.n}
    else:
        text = args.coeffs
        if os.path.exists(text):
            try:
                text = Path(text).read_text(encoding="ascii")
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"cannot read --coeffs file {text}: {exc}")
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise UsageError("--coeffs is empty")
        values = []
        for pos, tok in enumerate(tokens, start=1):
            try:
                values.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"invalid --coeffs token {pos}: {tok!r}")
        target = {"coeffs": " ".join(str(v) for v in values)}

    if args.strip_linear:
        roots = _parse_rationals_csv(args.strip_linear, "--strip-linear")
        poly = ExactPoly(values)
        for root in roots:
            factor = ExactPoly([-root, Fraction(1)])
            quotient, remainder = poly_divmod(poly, factor)
            if not remainder.is_zero:
                raise UsageError(
                    f"--strip-linear: {root} is not a root "
                    f"(remainder {remainder.to_text()})"
                )
            poly = quotient
        values = list(poly.coeffs)
        target["stripped_roots"] = [str(r) for r in roots]

    for k, v in enumerate(values):
        if v < 0:
            raise UsageError(
                f"coefficient {k} is negative ({v}); Polya frequency is defined "
                "for nonnegative sequences"
            )
    seq = pf_tnn.ToeplitzSeq(tuple(values))
    verdict = pf_tnn.pf_test(seq, max_order=args.max_order, max_shift=args.max_shift)

    details: dict = {
        "sequence_length": len(values),
        "is_pf": verdict.is_pf,
        "real_rooted": verdict.cross_check,
        "search_exhausted": verdict.search_exhausted,
        "max_order": args.max_order,
        "max_shift": args.max_shift,
        "index_convention": "row_start/col_start are 0-based offsets",
    }
    witnesses = []
    if verdict.witness is not None:
        witnesses.append(verdict.witness.to_dict())
        if verdict.witness.determinant >= 0 or verdict.is_pf:
            raise shape.InternalConsistencyError(
                "minor witness contradicts the real-rootedness verdict"
            )
    report = CertReport(
        kind="pf",
        target=target,
        verdict="pass" if verdict.is_pf else "fail",
        details=details,
        witnesses=witnesses,
        timings=dict(verdict.timings),
    )
    _print_report(report)
    return EXIT_OK if verdict.is_pf else EXIT_MATH_FAIL


# -- shape -------------------------------------------------------------------


def _parse_doctor(value: str, max_n: int):
    parts = value.split(":")
    if len(parts) != 3:
        raise UsageError("--doctor expects N:INDEX:VALUE")
    try:
        target_n, index, forced = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad --doctor value {value!r}")
    # a doctored row the table never reaches would report success
    if not 1 <= target_n <= max_n:
        raise UsageError(f"--doctor N={target_n} is outside the table's range 1..{max_n}")
    if not 0 <= index <= target_n:
        raise UsageError(
            f"--doctor INDEX={index} is outside Q_{target_n}'s coefficients 0..{target_n}"
        )
    if forced < 0:
        raise UsageError(f"--doctor VALUE={forced} is negative; shapes need entries >= 0")

    def override(n: int):
        seq = list(polynomials.q_scaled_coeffs(n))
        if n == target_n:
            seq[index] = forced
        return seq

    return override


def cmd_shape(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise UsageError("--max-n must be nonnegative")
    limit = SHAPE_FULL_LIMIT if args.full_1000 else SHAPE_DESK_LIMIT
    if args.max_n > limit:
        if args.full_1000:
            raise UsageError(
                f"--max-n {args.max_n} exceeds the supported range "
                f"(<= {SHAPE_FULL_LIMIT})"
            )
        raise UsageError(
            f"--max-n {args.max_n} exceeds the desk-scale default "
            f"{SHAPE_DESK_LIMIT}; pass --full-1000 to go up to {SHAPE_FULL_LIMIT}"
        )
    _maybe_load_cache(args)
    override = _parse_doctor(args.doctor, args.max_n) if args.doctor else None
    if args.format == "csv":
        print("n,unimodal,log_concave,ultra_log_concave,peak_index")
    # one n at a time, each row flushed as it is done, so a long run shows
    # its progress and a stopped run keeps every finished row
    for n in range(1, args.max_n + 1):
        (rep,) = shape.shape_report((n,), override=override)
        if args.format == "csv":
            d = rep.details
            print(
                f"{n},{int(bool(d['unimodal']))},"
                f"{int(bool(d['log_concave']))},{int(bool(d['ultra_log_concave']))},"
                f"{d['peak_index'] if d['peak_index'] is not None else ''}"
            )
        else:
            _print_report(rep)
        sys.stdout.flush()
        if not rep.passed:
            sys.stderr.write(
                f"shape failure at n={n}: witness index "
                f"{rep.witnesses[0]['failure_witness']}\n"
            )
            return EXIT_MATH_FAIL
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darcais",
        description=(
            "Exact certification toolkit for D'Arcais / Nekrasov-Okounkov "
            "polynomials: hook-length identity checks, Polya frequency tests, "
            "real-root and Hurwitz certificates, coefficient shape analysis."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {ARTIFACT_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print P_n (or the shifted Q_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--normalized", action="store_true",
        help="print the integer-normalized record instead of rational coefficients",
    )
    p.add_argument(
        "--shifted", action="store_true", help="print Q_n(x) = P_n(x+1) instead"
    )
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="cross-check hook-length identities")
    p.add_argument(
        "--conjecture", choices=sorted(CONJECTURE_ROUTES), required=True,
        help=(
            "1: trivial-leg hook sum; no: full Nekrasov-Okounkov hook sum; "
            "corollary: trivial-arm and binomial-product sums"
        ),
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--force", action="store_true",
        help="compute past the per-route feasibility bounds",
    )
    p.add_argument(
        "--inject-error", metavar="ROUTE:INDEX[:DELTA]",
        help="diagnostic: perturb one route's output to exercise the failure path",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="root-location certificates")
    p.add_argument("--n", type=int, help="use the normalized P_n numerator / x")
    p.add_argument(
        "--poly", help="polynomial coefficients (inline tokens or a file path)"
    )
    p.add_argument(
        "--isolate", "--sturm", dest="isolate", action="store_true",
        help="isolate the real roots (honors --max-width)",
    )
    p.add_argument(
        "--max-width", default="1",
        help="maximum isolation interval width (exact rational, default 1)",
    )
    p.add_argument(
        "--hurwitz", action="store_true", help="add the Routh-Hurwitz verdict"
    )
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("pf", help="Polya frequency test with minor witness")
    p.add_argument("--n", type=int, help="test the normalized P_n numerator sequence")
    p.add_argument(
        "--coeffs",
        help="sequence to test (comma or space separated, or a file path)",
    )
    p.add_argument("--max-order", type=int, default=32)
    p.add_argument("--max-shift", type=int, default=8)
    p.add_argument(
        "--strip-linear", metavar="R1,R2,...",
        help="divide out exact rational roots (e.g. -1) before testing",
    )
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("shape", help="coefficient shape table for Q_n")
    p.add_argument("--max-n", type=int, default=SHAPE_DESK_LIMIT)
    p.add_argument(
        "--full-1000", action="store_true",
        help=f"allow the full range up to n = {SHAPE_FULL_LIMIT}",
    )
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument(
        "--doctor", metavar="N:INDEX:VALUE",
        help="diagnostic: force one coefficient to exercise the failure path",
    )
    p.set_defaults(func=cmd_shape)

    # verify and shape take their Q_n rows from the Q recurrence, so the
    # P records buy them nothing but the validation of the file
    validate = "to validate only (the Q_n rows come from their own recurrence)"
    cache_use = {"poly": "to reuse and extend", "verify": validate, "shape": validate}
    for name, p in sub.choices.items():
        p.add_argument(
            "--cache", type=_cache_path,
            help=f"normalized-record cache file {cache_use.get(name, 'to reuse')}",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args._cache_path = _resolve_cache_path(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CacheError as exc:
        sys.stderr.write(f"cache error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    except shape.InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_MATH_FAIL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
