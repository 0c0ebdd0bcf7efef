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
failed, 2 = bad usage, unreadable input or a failed write to stdout.
"""

from __future__ import annotations

import atexit
import errno
import math
import os
import sys
import time
from types import SimpleNamespace

from . import polynomials
from .plain import Plain
from .reports import ARTIFACT_VERSION, CertReport, InternalConsistencyError

# argparse is imported only for a command the reader below declines
# (help, the version, a usage error); the integer kernel (exactnum), the
# root and PF certificates, the shape predicates and the cache module are
# imported by the subcommands that use them.  So a well-formed shape, poly
# or verify job loads none of the certificates, and a roots or pf job on
# integer input loads no fractions: _number reads an integer without it.
TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    import argparse
    from collections.abc import Sequence
    from fractions import Fraction
    from typing import NoReturn

    Args = argparse.Namespace | SimpleNamespace  # argparse's, or _read_args'

CACHE_ENV_VAR = "DARCAIS_CACHE"

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


class OutputError(OSError):
    """A write to stdout failed; maps to exit code 2."""


# -- shared helpers ----------------------------------------------------------


def _has_directory(path: str) -> bool:
    """Whether the directory of the file path names exists."""
    from .cache import clean_path

    return os.path.isdir(os.path.dirname(clean_path(path)) or ".")


def _cache_path(value: str) -> str:
    """Option type of --cache: the file may be missing, its directory not."""
    if not _has_directory(value):
        import argparse  # only to word the refusal as argparse prints it

        raise argparse.ArgumentTypeError(f"{value}: directory does not exist")
    return value


def _resolve_cache_path(args: Args) -> str | None:
    """The cache file from --cache or else the environment.  The --cache
    rule holds for both: the file may be missing, its directory not."""
    if args.cache:
        return args.cache  # the option's type has checked its directory
    path = os.environ.get(CACHE_ENV_VAR)
    if path and not _has_directory(path):
        raise UsageError(f"{CACHE_ENV_VAR}={path}: directory does not exist")
    return path


def _maybe_load_cache(args: Args) -> int:
    """Seed the memo from the resolved cache file, if it exists; returns
    the number of records loaded."""
    path = args._cache_path
    if not path:
        return 0
    from . import cache

    try:
        os.stat(cache.clean_path(path))
    except OSError as exc:
        # the errors pathlib's exists() takes for a missing file
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            return 0
        raise
    return cache.load_into_memo(path)


def _read_argument(value: str, what: str) -> tuple[str, str]:
    """The text of an argument that may name a file, and where it came
    from: the file's text if the path exists, else the value itself."""
    if not os.path.exists(value):
        return value, "argument"
    from .cache import clean_path

    try:
        with open(clean_path(value), encoding="ascii") as fh:
            return fh.read(), f"file {value}"
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file {value}: {exc}")


def _number(token: str) -> int | Fraction:
    """The value Fraction(token) gives, or the error it raises; an int
    when the value is an integer and the token has the plain form: an
    optional sign, ASCII digits, and optionally a slash and ASCII digits.
    Such a token is read without loading fractions.  Every other token,
    and a zero denominator, goes to Fraction, which words the refusal.
    """
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        # int() raises as Fraction does, for a part past its digit limit
        top, bottom = int(num), int(den or 1)
        if bottom and not top % bottom:
            return top // bottom
    from fractions import Fraction

    return Fraction(token)


def _rationals(tokens: Sequence[str], invalid: str) -> list[int | Fraction]:
    """The tokens as numbers (_number); the first bad one is refused as
    "{invalid} {position}: {token!r}", counting from 1."""
    out = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            out.append(_number(tok))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{invalid} {pos}: {tok!r}")
    return out


def _strip_zeros(values: list) -> list:
    """values without trailing zeros: the coefficients of a polynomial,
    constant term first, none for the zero polynomial."""
    while values and not values[-1]:
        values.pop()
    return values


def _write(text: str, flush: bool = False) -> None:
    """Write text to stdout, as print does (nothing when the process has
    no stdout), and flush it if asked; a write that fails raises
    OutputError, so that it is not taken for an input error."""
    try:
        print(text, end="", flush=flush)
    except OSError as exc:
        raise OutputError(*exc.args) from exc


def _print_report(report: CertReport) -> None:
    _write(report.to_json() + "\n")


# -- poly --------------------------------------------------------------------


def cmd_poly(args: Args) -> int:
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
        _write(" ".join(str(c) for c in coeffs) + "\n")
    else:
        coeffs = (
            polynomials.q_scaled_coeffs(n) if args.shifted
            else polynomials.scaled_coeffs(n)
        )
        fact = math.factorial(n)
        _write(" ".join(_over(c, fact) for c in coeffs) + "\n")
    if args._cache_path and n > loaded:
        from .cache import write_cache

        write_cache(args._cache_path, n)
    return EXIT_OK


def _over(num: int, den: int) -> str:
    """num/den in lowest terms as str(Fraction(num, den)) prints it, for
    den > 0: the numerator alone when the denominator is 1."""
    g = math.gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


# -- verify ------------------------------------------------------------------


def _parse_injection(value: str) -> dict[str, tuple[int, Fraction]]:
    from fractions import Fraction

    parts = value.split(":")
    if len(parts) not in (2, 3):
        raise UsageError("--inject-error expects ROUTE:INDEX[:DELTA]")
    route = parts[0]
    delta = parts[2] if len(parts) == 3 else "1"
    if route not in polynomials.ROUTE_NAMES:
        raise UsageError(f"unknown route {route!r} in --inject-error")
    try:
        index, delta = int(parts[1]), Fraction(delta)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --inject-error value {value!r}")
    # a negative index would count from the top coefficient
    if index < 0:
        raise UsageError(f"--inject-error INDEX={index} is negative; coefficients start at 0")
    return {route: (index, delta)}


def cmd_verify(args: Args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    _maybe_load_cache(args)
    routes = CONJECTURE_ROUTES[args.conjecture]
    bounds = polynomials.DEFAULT_ROUTE_BOUNDS
    over = [r for r in routes if args.max_n > bounds[r]]
    if over and not args.force:
        listed = ", ".join(f"{r} (bound {bounds[r]})" for r in over)
        raise UsageError(
            f"--max-n {args.max_n} exceeds the feasibility bound for: {listed}; "
            "pass --force to compute anyway"
        )
    tamper = _parse_injection(args.inject_error) if args.inject_error else None
    if tamper and not tamper.keys() <= set(routes):
        (route,) = tamper
        raise UsageError(
            f"--inject-error route {route!r} is not run by --conjecture "
            f"{args.conjecture}, which runs: {', '.join(routes)}"
        )
    for report in polynomials.verify_up_to(args.max_n, routes=routes, tamper=tamper):
        _print_report(report)
        if not report.passed:
            return EXIT_MATH_FAIL
    return EXIT_OK


# -- roots -------------------------------------------------------------------


def cmd_roots(args: Args) -> int:
    from . import rootcert
    from .exactnum import primitive_int_coeffs

    # the width is read first, with or without --isolate, so that a bad
    # one is refused before any certificate runs
    try:
        width = _number(args.max_width)
    except ZeroDivisionError:
        raise UsageError(f"--max-width {args.max_width} has a zero denominator")
    if width <= 0:
        raise ValueError("max_width must be positive")
    if (args.n is None) == (args.poly is None):
        raise UsageError("choose exactly one of --n or --poly")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        _maybe_load_cache(args)
        coeffs = polynomials.darcais_record(args.n).numer_coeffs
        target: dict = {"n": args.n, "polynomial": "normalized P_n numerator / x"}
    else:
        text, origin = _read_argument(args.poly, "polynomial")
        failure = f"polynomial parse failure in {origin}, line 1:"
        tokens = text.split()
        if not tokens:
            raise UsageError(f"{failure} empty polynomial text")
        values = _strip_zeros(_rationals(tokens, f"{failure} invalid coefficient token"))
        if not values:
            raise UsageError("the zero polynomial has no root certificate")
        coeffs = tuple(primitive_int_coeffs(values))
        target = {"coeffs": " ".join(f"{c.numerator}/{c.denominator}" for c in values)}

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
        start = time.perf_counter()
        intervals = rootcert.isolate_real_roots(coeffs, max_width=width)
        timings["isolate"] = time.perf_counter() - start
        details["intervals"] = [
            {"lower": str(iv.lower), "upper": str(iv.upper), "count": iv.count}
            for iv in intervals
        ]

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


def cmd_pf(args: Args) -> int:
    from . import pf_tnn

    if (args.n is None) == (args.coeffs is None):
        raise UsageError("choose exactly one of --n or --coeffs")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        _maybe_load_cache(args)
        values = polynomials.darcais_record(args.n).numer_coeffs
        target: dict = {"n": args.n}
    else:
        text, _ = _read_argument(args.coeffs, "--coeffs")
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise UsageError("--coeffs is empty")
        values = _rationals(tokens, "invalid --coeffs token")
        target = {"coeffs": " ".join(str(v) for v in values)}

    if args.strip_linear:
        roots = _rationals(args.strip_linear.split(","), "invalid --strip-linear entry")
        values = _strip_zeros(list(values))
        for root in roots:
            # synthetic division by x - root, from the top coefficient down:
            # the running values are the quotient's, then p(root)
            acc = 0
            quotient = []
            for c in reversed(values):
                acc = acc * root + c
                quotient.append(acc)
            remainder = quotient.pop() if quotient else 0
            if remainder:
                raise UsageError(
                    f"--strip-linear: {root} is not a root "
                    f"(remainder {remainder.numerator}/{remainder.denominator})"
                )
            values = quotient[::-1]
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
            raise InternalConsistencyError(
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


def cmd_shape(args: Args) -> int:
    from . import shape

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
        _write("n,unimodal,log_concave,ultra_log_concave,peak_index\n")
    # one n at a time, each row flushed as it is done, so a long run shows
    # its progress and a stopped run keeps every finished row
    for n in range(1, args.max_n + 1):
        (rep,) = shape.shape_report((n,), override=override)
        if args.format == "csv":
            d = rep.details
            line = (
                f"{n},{int(bool(d['unimodal']))},"
                f"{int(bool(d['log_concave']))},{int(bool(d['ultra_log_concave']))},"
                f"{d['peak_index'] if d['peak_index'] is not None else ''}\n"
            )
        else:
            line = rep.to_json() + "\n"
        _write(line, flush=True)
        if not rep.passed:
            sys.stderr.write(
                f"shape failure at n={n}: witness index "
                f"{rep.witnesses[0]['failure_witness']}\n"
            )
            return EXIT_MATH_FAIL
    return EXIT_OK


# -- arguments ---------------------------------------------------------------


class Option(Plain):
    """One option of a subcommand, in the terms of argparse's add_argument:
    a value of the given type (bool: a flag, store_true), its default, and
    whether it is required; choices, help and metavar as argparse has them.
    The destination is the name without its dashes, as argparse derives it.
    """

    __slots__ = ("name", "type", "default", "required", "choices", "help", "metavar",
                 "aliases", "dest")
    derived = ("dest",)

    def __init__(self, name: str, type=str, default=None, required: bool = False,
                 choices: tuple | None = None, help: str | None = None,
                 metavar: str | None = None, aliases: tuple[str, ...] = ()):
        self.name = name
        self.type = type
        self.default = False if type is bool else default
        self.required = required
        self.choices = choices
        self.help = help
        self.metavar = metavar
        self.aliases = aliases
        self.dest = name.lstrip("-").replace("-", "_")


def _cache_option(use: str) -> Option:
    return Option("--cache", _cache_path, help=f"normalized-record cache file {use}")


# verify and shape take their Q_n rows from the Q recurrence, so the P
# records buy them nothing but the validation of the file
_VALIDATE = "to validate only (the Q_n rows come from their own recurrence)"

# every subcommand once, in the order help lists them: its help line, the
# function that runs it and its options; build_parser and _read_args both
# read this table
COMMANDS = {
    "poly": ("print P_n (or the shifted Q_n)", cmd_poly, (
        Option("--n", int, required=True),
        Option("--normalized", bool, help=(
            "print the integer-normalized record instead of rational coefficients"
        )),
        Option("--shifted", bool, help="print Q_n(x) = P_n(x+1) instead"),
        _cache_option("to reuse and extend"),
    )),
    "verify": ("cross-check hook-length identities", cmd_verify, (
        Option("--conjecture", choices=tuple(sorted(CONJECTURE_ROUTES)), required=True,
               help=(
                   "1: trivial-leg hook sum; no: full Nekrasov-Okounkov hook sum; "
                   "corollary: trivial-arm and binomial-product sums"
               )),
        Option("--max-n", int, required=True),
        Option("--force", bool, help="compute past the per-route feasibility bounds"),
        Option("--inject-error", metavar="ROUTE:INDEX[:DELTA]", help=(
            "diagnostic: perturb one route's output to exercise the failure path"
        )),
        _cache_option(_VALIDATE),
    )),
    "roots": ("root-location certificates", cmd_roots, (
        Option("--n", int, help="use the normalized P_n numerator / x"),
        Option("--poly", help="polynomial coefficients (inline tokens or a file path)"),
        Option("--isolate", bool, aliases=("--sturm",),
               help="isolate the real roots (honors --max-width)"),
        Option("--max-width", default="1",
               help="maximum isolation interval width (exact rational, default 1)"),
        Option("--hurwitz", bool, help="add the Routh-Hurwitz verdict"),
        _cache_option("to reuse"),
    )),
    "pf": ("Polya frequency test with minor witness", cmd_pf, (
        Option("--n", int, help="test the normalized P_n numerator sequence"),
        Option("--coeffs",
               help="sequence to test (comma or space separated, or a file path)"),
        Option("--max-order", int, default=32),
        Option("--max-shift", int, default=8),
        Option("--strip-linear", metavar="R1,R2,...",
               help="divide out exact rational roots (e.g. -1) before testing"),
        _cache_option("to reuse"),
    )),
    "shape": ("coefficient shape table for Q_n", cmd_shape, (
        Option("--max-n", int, default=SHAPE_DESK_LIMIT),
        Option("--full-1000", bool,
               help=f"allow the full range up to n = {SHAPE_FULL_LIMIT}"),
        Option("--format", choices=("csv", "jsonl"), default="csv"),
        Option("--doctor", metavar="N:INDEX:VALUE",
               help="diagnostic: force one coefficient to exercise the failure path"),
        _cache_option(_VALIDATE),
    )),
}


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, for a command in the
    form jobs use: a subcommand, then options by their exact long names,
    as "--opt value", "--opt=value" or a flag.  None for anything else:
    help, the version, an abbreviation, "--opt" followed by a value that
    starts with "-" or by nothing, a missing required option, a value
    that its type or choices refuse, or any other token.  main hands
    those to argparse, the only code that prints help and usage errors.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    by_name = {name: opt for opt in options for name in (opt.name, *opt.aliases)}
    values = {opt.dest: opt.default for opt in options}
    missing = {opt.dest for opt in options if opt.required}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        opt = by_name.get(name)
        if opt is None or (equals and opt.type is bool):
            return None
        if opt.type is bool:
            values[opt.dest] = True
            continue
        if not equals:
            value = next(tokens, "-")  # no value left: declined like a dash
            if value.startswith("-"):
                return None
        try:
            value = opt.type(value)
        except Exception:  # argparse calls the type again and words the refusal
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        missing.discard(opt.dest)
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **values, func=func)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for COMMANDS: what _read_args reproduces, and
    what prints help, the version and usage errors."""
    import argparse

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
    for command, (summary, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for opt in options:
            names = (opt.name, *opt.aliases)
            if opt.type is bool:
                p.add_argument(*names, dest=opt.dest, action="store_true", help=opt.help)
            else:
                p.add_argument(
                    *names, dest=opt.dest, type=opt.type, default=opt.default,
                    required=opt.required, choices=opt.choices, help=opt.help,
                    metavar=opt.metavar,
                )
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args._cache_path = _resolve_cache_path(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OutputError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        from .cache import CacheError  # loaded already if it raised one

        kind = "cache error" if isinstance(exc, CacheError) else "input error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_MATH_FAIL


def entry() -> NoReturn:
    """Run main as a process (the `darcais` console script and `python -m
    darcais.cli`) and end the process with its exit code.

    After main returns, the atexit handlers run and stdout and stderr are
    flushed; then os._exit ends the process at once.  That skips the
    interpreter's teardown (a last garbage collection, clearing every
    module, freeing the tables), which costs a job several milliseconds
    and frees only memory that the operating system takes back anyway.
    An exception that escapes main is not caught here: the interpreter
    prints its traceback, tears down as usual and exits 1.

    A flush that fails is an output error, exit 2.  When main has already
    returned 2, its message is on stderr, and the same broken stdout fails
    again here: then nothing more is printed.
    """
    code = main()
    atexit._run_exitfuncs()
    message = ""
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_USAGE:
            message, code = f"output error: {exc}\n", EXIT_USAGE
    try:
        if sys.stderr is not None:
            sys.stderr.write(message)
            sys.stderr.flush()
    except OSError:
        code = code or EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    entry()
