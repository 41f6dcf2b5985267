"""Command-line surface: analyze a matrix, verify against the oracle, closed forms.

Subcommands
-----------
analyze MATRIX      elementary divisors, global zeta product, abscissa/pole
                    data, functional-equation exponents, pole-at-zero verdict
verify MATRIX       expand the local formula at chosen primes and compare
                    against brute-force sublattice counts; this command is
                    the one place where the formula side meets the oracle,
                    which imports no formula code and returns bare counts
special ...         zpxn N | powerseries N | fe-check PARTS

MATRIX is inline JSON ("[[0,1],[0,0]]" or {"n":2,"entries":[[0,1],[0,0]]}),
a path to a file holding the same, or "-" for standard input.

Flags may also be supplied through SUBMODZETA_-prefixed environment
variables (SUBMODZETA_FORMAT, _EDV, _PRIMES, _MAX_INDEX_EXP, _BUDGET);
explicit flags win, and SUBMODZETA_EDV applies only when analyze is given no
matrix (a matrix together with --edv is a usage error).  An empty variable
counts as unset; a SUBMODZETA_FORMAT other than text, json or latex, an
integer variable that does not parse, a list of primes that names none
(--primes "," or SUBMODZETA_PRIMES=",") or one prime twice (--primes 2,2),
or a negative --max-index-exp, --budget or --max-n, or a --max-index-exp
above MAX_INDEX_EXP = 100000, is a usage error that names the flag or the
variable, in argparse's wording.

Output: each cmd_* function composes its document once, as a JSON dict, a
text view and (for analyze and zpxn) a LaTeX view, and prints it through
_emit, the one place that chooses a format and writes to stdout; commands
without a LaTeX view print their text view for --format latex.  How a
polynomial, a binomial product or a global formula reads is decided by its
own class (IntPoly, BinomialProduct, GlobalZetaExpression), one layout for
both text and LaTeX.  Errors go to stderr from main.

Limits: analyze accepts every matrix with n <= 24 (it factors minimal
polynomials of degree <= 24, and a larger one exits 1 with a hint to pass
--edv); verify takes E <= 100000 and exits 3 past --max-n or --budget;
special zpxn takes N <= 1000 and special powerseries N <= 100000, and
analyze --edv and special fe-check an EDV of size n <= 1000 (deg f times
partition size, summed).  analyze --edv factors each f of degree <= 24 and
refuses a reducible one; above that degree f is taken on trust to be
irreducible.  Each runs in under a second, a factor f of high degree
included (x^1000 - 2: 0.6-0.75 s, 0.1 s of it in splitting_profile), but
not where sympy's factorint stalls on a bad-prime integer (a random dense
8 x 8 matrix, a dense f of degree 40).  A larger E, N or n, or a MATRIX
that is not square or has no entries, is a usage error.

Exit codes: 0 success / all good primes match, 1 usage or input error,
2 verification mismatch at a heuristically good prime, 3 work budget
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .canonical import ElementaryDivisorVector, EdvContext, edv_context
from .linalg import IntMatrix, IntPoly
from .oracle import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_N,
    BudgetError,
    count_invariant_sublattices,
)
from .partitions import Partition
from .polyfactor import DEFAULT_DEGREE_CAP, DegreeCapError, factor_over_z, splitting_profile
from .zetacore import (
    FunctionalEquationData,
    RamifiedPrimeError,
    abscissa,
    bad_prime_reasons,
    dirichlet_coefficients,
    functional_equation_data,
    generic_local_factor,
    global_formula,
    good_primes,
    has_simple_pole_at_zero,
    is_good_prime,
    powerseries_ring_coeffs,
    verify_functional_equation,
    zpxn_zeta,
)

ENV_PREFIX = "SUBMODZETA_"
FORMATS = ("text", "json", "latex")
ZPXN_MAX = 1000
POWERSERIES_MAX = 100_000
EDV_MAX = 1000
MAX_INDEX_EXP = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _env(name):
    return os.environ.get(ENV_PREFIX + name)


def _partition_text(lam: Partition) -> str:
    return "(" + ", ".join(str(x) for x in lam.parts) + ")"


def _series_text(values, p) -> str:
    """Truncated Dirichlet series over one prime, as readable text."""
    terms = []
    for e, a in enumerate(values):
        if a == 0:
            continue
        if e == 0:
            terms.append(str(a))
        else:
            coeff = "" if a == 1 else f"{a}*"
            terms.append(f"{coeff}{p ** e}^-s")
    body = " + ".join(terms) if terms else "0"
    return f"{body} + O({p ** (len(values))}^-s)"


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), for a value printed at indentation pad.

    json.dumps with an indent runs the pure-Python encoder; this walks the
    same tree in the encoder's order of type tests and joins strings.
    Strings are escaped by the encoder's own ASCII escaper, ints print by
    int.__repr__, and a list of plain ints takes one join.  Any other leaf,
    and a dict with a key that is not a str, goes to json.dumps itself with
    its lines shifted by pad, so it prints, or raises, as it would inside
    the whole document.  It stays because it is faster end to end: with
    json.dumps(doc, indent=2) in `_emit` instead, the verify-dense benchmark
    read 1287-1347 ops/s against 1308-1382 (10 s runs, seeds 1-3, one CPU
    of a 2-vCPU machine; slower at every seed).
    """
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json_text(x, inner) for x in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        body = sep.join([f"{_escape(k)}: {_json_text(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _emit(fmt: str, doc: dict, text: str, latex: str | None = None) -> None:
    """Print one command's document: the JSON dict, its LaTeX view where the
    command has one, or its text view (also LaTeX's stand-in).

    The JSON prints through _json_text, which gives the bytes of
    json.dumps(doc, indent=2) without its pure-Python indenting encoder.
    """
    if fmt == "json":
        print(_json_text(doc))
    elif fmt == "latex" and latex is not None:
        print(latex)
    else:
        print(text)


# ---------------------------------------------------------------------------
# input loading


def load_matrix(text: str) -> IntMatrix:
    if text == "-":
        raw = sys.stdin.read()
    elif os.path.exists(text):
        try:
            with open(text) as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read matrix file: {exc}") from exc
    else:
        raw = text
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(data, (dict, list)):
        raise UsageError("matrix must be a list of rows or {n, entries}")
    try:
        matrix = IntMatrix.from_json(data) if isinstance(data, dict) else IntMatrix(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid matrix: {exc}") from exc
    if not matrix.is_square or not matrix.n_rows:
        raise UsageError("matrix must be square and non-empty, got "
                         f"{matrix.n_rows} x {matrix.n_cols}")
    return matrix


def load_edv(path: str) -> ElementaryDivisorVector:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read EDV file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"EDV file is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("edv")
        if data is None:
            raise UsageError('EDV document must hold an "edv" field')
    try:
        return ElementaryDivisorVector.from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"invalid EDV: {exc}") from exc


# ---------------------------------------------------------------------------
# analyze


def _fe_check(ctx: EdvContext) -> tuple[int, FunctionalEquationData, bool]:
    """The first good prime, the functional-equation exponents there, and
    whether the generic local factor at that prime obeys them."""
    edv = ctx.edv
    p = next(good_primes(ctx))
    profiles = [splitting_profile(f, p) for f, _ in edv.entries]
    data = functional_equation_data(edv, profiles)
    return p, data, verify_functional_equation(generic_local_factor(edv, profiles), data)


def cmd_analyze(args) -> int:
    if args.edv:
        if args.matrix is not None:
            raise UsageError("analyze takes a matrix argument or --edv, not both")
        edv = load_edv(args.edv)
        _size_arg(edv.n, "analyze --edv", "size", EDV_MAX)
        ctx = EdvContext(edv, 1)
        for f, _ in edv.entries:
            # above the factorization cap, f is taken to be irreducible
            if f.degree <= DEFAULT_DEGREE_CAP and factor_over_z(f) != [(f, 1)]:
                raise UsageError(f"EDV polynomial {f} is reducible over Q")
        matrix = None
    else:
        if args.matrix is None:
            raise UsageError("analyze needs a matrix argument or --edv")
        matrix = load_matrix(args.matrix)
        ctx = edv_context(matrix)
    edv = ctx.edv
    expr = global_formula(edv, bad_prime_reasons(ctx))
    alpha, beta = abscissa(edv)
    p, fe, verified = _fe_check(ctx)
    simple_pole = has_simple_pole_at_zero(edv)
    pole = "yes" if simple_pole else "no"
    formula_text, formula_latex = expr.text(), expr.latex()
    factors = expr.to_json()
    doc = {
        "matrix": matrix.to_json() if matrix is not None else None,
        "edv": edv.to_json(),
        "denominator_lcm": ctx.denominator_lcm,
        "global_formula": {
            "text": formula_text,
            "latex": formula_latex,
            "dedekind_factors": factors["dedekind_factors"],
        },
        "bad_primes": factors["bad_primes"],
        "alpha": alpha,
        "beta": beta,
        "functional_equation": {"prime": p, **fe.to_json(), "verified": verified},
        "simple_pole_at_zero": simple_pole,
    }

    lines = []
    if matrix is not None:
        lines.append(f"matrix: {json.dumps([list(r) for r in matrix.entries])}")
    lines.append(f"n: {edv.n}")
    lines.append("elementary divisor vector:")
    for f, lam in edv.entries:
        lines.append(f"  {f} : {_partition_text(lam)}")
    lines.append(f"global zeta: {formula_text}")
    if expr.bad_primes:
        for q, reasons in expr.bad_primes:
            lines.append(f"bad prime {q}: {'; '.join(reasons)}")
    else:
        lines.append("bad primes: none")
    lines.append(f"abscissa of convergence: {alpha}")
    lines.append(f"pole order at the abscissa: {beta}")
    lines.append(
        f"functional equation at p={p}: "
        f"sign {fe.sign_exponent}, q-exponent {fe.q_exponent}, "
        f"s-exponent {fe.s_exponent} ({'verified' if verified else 'FAILED'})"
    )
    lines.append(f"simple pole at zero: {pole}")

    latex = [
        rf"\[ \zeta_A(s) = {formula_latex} \]",
        f"% alpha = {alpha}, beta = {beta}, simple pole at zero: {pole}",
    ]
    if expr.bad_primes:
        latex.append(rf"% bad primes: {', '.join(str(q) for q, _ in expr.bad_primes)}")
    _emit(args.format, doc, "\n".join(lines), "\n".join(latex))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    """The formula against the oracle at each prime.  The splitting profiles
    come first, so a p that is not prime fails in splitting_profile; then the
    oracle's count, so a budget it refuses is refused before the formula is
    expanded to E; then the formula, None where a factor ramifies.  A good
    prime whose formula is None or wrong is demoted."""
    if args.matrix is None:
        raise UsageError("verify needs a matrix argument")
    matrix = load_matrix(args.matrix)
    ctx = edv_context(matrix)
    edv, top = ctx.edv, args.max_index_exp
    primes = args.primes or list(itertools.islice(good_primes(ctx), 3))
    reports, lines = [], []
    for p in primes:
        good = is_good_prime(p, ctx)
        profiles = [splitting_profile(f, p) for f, _ in edv.entries]
        counts = list(count_invariant_sublattices(matrix, p, top, args.max_n, args.budget))
        try:
            formula = list(dirichlet_coefficients(generic_local_factor(edv, profiles), p, top))
        except RamifiedPrimeError:
            formula = None
        matches = formula == counts
        mismatch = next((e for e, (x, y) in enumerate(zip(formula or [], counts)) if x != y), None)
        demoted = good and not matches
        reports.append({
            "prime": p,
            "max_exp": top,
            "formula_values": formula,
            "oracle_values": counts,
            "heuristically_good": good,
            "mismatch_index": mismatch,
            "demoted": demoted,
        })
        lines.append(f"p = {p} ({'good' if good else 'bad'} prime, E = {top})")
        lines.append(f"  formula: {'none (ramified)' if formula is None else formula}")
        lines.append(f"  oracle:  {counts}")
        if not matches:
            lines.append(f"  truncated local factor: {_series_text(counts, p)}")
        if demoted:
            lines.append(f"  MISMATCH at exponent {mismatch}: p = {p} demoted to bad")
        elif matches:
            lines.append("  match")
    failed = sum(r["demoted"] for r in reports)
    lines.append(f"{failed} good prime(s) mismatched" if failed else "all good primes match")
    _emit(args.format, {"reports": reports, "all_good_primes_match": not failed}, "\n".join(lines))
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# special closed forms


def _parse_partition(tokens) -> Partition:
    raw = " ".join(tokens).replace("(", " ").replace(")", " ").replace(",", " ")
    parts = [_int_arg(tok, "fe-check") for tok in raw.split()]
    if not parts:
        raise UsageError("empty partition")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _int_arg(value, what) -> int:
    if value is None:
        raise UsageError(f"{what} needs an integer argument")
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"{what}: {value!r} is not an integer") from exc


def _size_arg(value, what: str, noun: str, limit: int) -> int:
    n = _int_arg(value, what)
    if n < 1:
        raise UsageError(f"{what} needs a positive {noun}")
    if n > limit:
        raise UsageError(f"{what}: {noun} {n} exceeds the limit {limit}")
    return n


def cmd_special(args) -> int:
    if args.parts and args.what != "fe-check":
        raise UsageError(f"{args.what} takes one argument, got {1 + len(args.parts)}")
    if args.what == "zpxn":
        n = _size_arg(args.n, "zpxn", "block size", ZPXN_MAX)
        product = zpxn_zeta(n)
        _emit(
            args.format,
            {"n": n, "factors": product.to_json()},
            f"local zeta factor of the truncated polynomial ring, n = {n}:\n  {product.text()}",
            product.latex(),
        )
        return 0

    if args.what == "powerseries":
        n = _size_arg(args.n, "powerseries", "coefficient count", POWERSERIES_MAX)
        coeffs = powerseries_ring_coeffs(n)
        _emit(
            args.format,
            {"coefficients": coeffs},
            "\n".join(f"{m}\t{a}" for m, a in enumerate(coeffs, start=1)),
        )
        return 0

    if args.what == "fe-check":
        tokens = ([args.n] if args.n is not None else []) + list(args.parts)
        lam = _parse_partition(tokens)
        edv = ElementaryDivisorVector.from_pairs([(IntPoly((0, 1)), lam)])
        _size_arg(edv.n, "fe-check", "size", EDV_MAX)
        p, data, verified = _fe_check(EdvContext(edv, 1))
        _emit(
            args.format,
            {"partition": list(lam.parts), "prime": p, **data.to_json(), "verified": verified},
            f"partition {_partition_text(lam)}: sign {data.sign_exponent}, "
            f"q-exponent {data.q_exponent}, s-exponent {data.s_exponent} "
            f"({'verified' if verified else 'FAILED'} at p={p})",
        )
        return 0 if verified else 2

    raise UsageError(f"unknown special form {args.what!r}")


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every main call."""
    parser = _Parser(
        prog="submodzeta",
        description="Submodule zeta functions of integer matrices, exactly.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=None,
            help="output rendering (default text; env SUBMODZETA_FORMAT)",
        )

    pa = sub.add_parser("analyze", help="symbolic analysis of one matrix")
    pa.add_argument("matrix", nargs="?", help="matrix JSON, file path, or -")
    pa.add_argument("--edv", default=None, help="EDV JSON file, bypasses factorization")
    add_format(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="compare the formula against brute force")
    pv.add_argument("matrix", nargs="?", help="matrix JSON, file path, or -")
    pv.add_argument("--primes", default=None, help="comma-separated primes")
    pv.add_argument(
        "--max-index-exp", type=int, default=None, help="largest tested exponent E"
    )
    pv.add_argument(
        "--budget", type=int, default=None, help="HNF candidate budget per prime"
    )
    pv.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="oracle size cap")
    add_format(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("special", help="closed forms and the functional-equation check")
    ps.add_argument("what", choices=["zpxn", "powerseries", "fe-check"])
    ps.add_argument("n", nargs="?", default=None, help="size argument")
    ps.add_argument("parts", nargs="*", help="partition parts for fe-check")
    add_format(ps)
    ps.set_defaults(func=cmd_special)

    return parser


def _int_value(text: str, source: str) -> int:
    """int(text), or a usage error that names its source in argparse's wording."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{source}: invalid int value: {text!r}") from None


def _env_int(name: str, default: int) -> int:
    text = _env(name)
    return _int_value(text, ENV_PREFIX + name) if text else default


def _apply_env(args) -> None:
    if args.format is None:
        args.format = _env("FORMAT") or "text"
        if args.format not in FORMATS:
            raise UsageError(
                f"{ENV_PREFIX}FORMAT: invalid choice: {args.format!r} "
                f"(choose from {', '.join(map(repr, FORMATS))})"
            )
    if args.command == "analyze" and args.edv is None and args.matrix is None:
        args.edv = _env("EDV")
    if args.command == "verify":
        source = "argument --primes"
        if args.primes is None:
            args.primes, source = _env("PRIMES") or None, ENV_PREFIX + "PRIMES"
        if args.primes is not None:
            args.primes = [_int_value(tok, source) for tok in args.primes.split(",") if tok.strip()]
            if not args.primes:
                raise UsageError(f"{source}: expected at least one prime")
            for i, p in enumerate(args.primes):
                if p in args.primes[:i]:
                    raise UsageError(f"{source}: repeated prime: {p}")
        # --max-n has no variable, and argparse gives it a default
        for attr, name, default in (("max_index_exp", "MAX_INDEX_EXP", 3),
                                    ("budget", "BUDGET", DEFAULT_MAX_CANDIDATES),
                                    ("max_n", None, None)):
            source, value = "argument --" + attr.replace("_", "-"), getattr(args, attr)
            if value is None:
                value = _env_int(name, default)
                setattr(args, attr, value)
                source = ENV_PREFIX + name
            if value < 0:
                raise UsageError(f"{source}: must be >= 0, got {value}")
            if attr == "max_index_exp" and value > MAX_INDEX_EXP:
                raise UsageError(f"{source}: must be <= {MAX_INDEX_EXP}, got {value}")


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a subcommand is required (analyze, verify, special)")
        _apply_env(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except DegreeCapError as exc:
        print(
            f"error: {exc} — factor the matrix yourself and pass --edv",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
