"""Local and global submodule zeta formulas, in exact symbolic form.

A local Euler factor is a product of binomials (1 - X^a Y^b)^e with X the
residue size and Y = X^(-s); such products are represented canonically by
their sorted factor lists, which determines them uniquely as rational
functions (the binomials are multiplicatively independent).  On top of
that sit: the w_lambda factor of a nilpotent block, the good-prime Euler
factor of a general elementary divisor vector, the good/bad-prime
heuristic (which only reads the integers an EdvContext computed: p <= n
or p divides one of them), the global product of
shifted Dedekind zeta factors, the abscissa of convergence with its pole
multiplicity, functional-equation exponents and their verification, the
pole-at-zero criterion, two closed forms (ideals of Z_p[x]/(x^n) and
submodules of the power-series ring), and exact coefficient expansion
bridging all formulas to the brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import sympy

from .canonical import EdvContext, ElementaryDivisorVector
from .linalg import IntPoly
from .partitions import Partition
from .polyfactor import SplittingProfile


class RamifiedPrimeError(ValueError):
    """f mod p is not squarefree, so the generic local formula is undefined."""


# ---------------------------------------------------------------------------
# canonical binomial products


@dataclass(frozen=True)
class BinomialProduct:
    """Product of (1 - X^a Y^b)^e factors in canonical form.

    factors are (a, b, e) triples, sorted by (a, b), one triple per (a, b),
    with e != 0.  Equality of canonical lists is equality of the rational
    functions they denote.
    """

    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        previous = None
        for a, b, e in self.factors:
            if a < 0 or b < 1 or e == 0:
                raise ValueError(f"bad factor {(a, b, e)!r}")
            if previous is not None and (a, b) <= previous:
                raise ValueError("factors not canonical; use from_factors")
            previous = (a, b)

    @classmethod
    def from_factors(cls, items) -> BinomialProduct:
        merged: dict[tuple[int, int], int] = {}
        for a, b, e in items:
            merged[(a, b)] = merged.get((a, b), 0) + e
        canon = tuple(
            (a, b, e) for (a, b), e in sorted(merged.items()) if e != 0
        )
        return cls(canon)

    def text(self) -> str:
        return self._layout("(1 - {q}t^{b})^{e}", "q^{a} ", " ")

    def latex(self) -> str:
        return self._layout(r"\left(1 - {q}t^{{{b}}}\right)^{{{e}}}", "q^{{{a}}} ", "")

    def _layout(self, factor: str, qpart: str, sep: str) -> str:
        """Each (a, b, e) through the `factor` template, q^a (when a > 0)
        through `qpart`, the factors joined by `sep`."""
        if not self.factors:
            return "1"
        return sep.join(
            factor.format(q=qpart.format(a=a) if a else "", b=b, e=e)
            for a, b, e in self.factors
        )

    def to_json(self) -> list[dict]:
        return [{"a": a, "b": b, "e": e} for a, b, e in self.factors]


def w_lambda(lam: Partition) -> BinomialProduct:
    """The local factor attached to a nilpotent block of the given dual type.

    One inverse binomial per diagram cell j: (1 - X^(j-1) Y^ind(j))^(-1).
    """
    if lam.size == 0:
        raise ValueError("empty partition has no local factor")
    return BinomialProduct.from_factors(
        (j - 1, lam.ind(j), -1) for j in range(1, lam.size + 1)
    )


# ---------------------------------------------------------------------------
# good primes and the local Euler factor


def is_good_prime(p: int, ctx: EdvContext) -> bool:
    """Heuristic goodness: the generic local formula is expected at good p.

    Bad when p <= n or p divides one of the context's integers: a leaked
    denominator, Res(f_i, f_i') (f_i fails to stay squarefree mod p) or a
    pairwise resultant.  Over-approximates; the oracle comparison catches
    (and demotes) anything that slips through.
    """
    return p > ctx.edv.n and all(d % p for d, _ in ctx.divisors)


def good_primes(ctx: EdvContext):
    """Ascending heuristically-good primes; an infinite generator."""
    p = 1
    while True:
        p = int(sympy.nextprime(p))
        if is_good_prime(p, ctx):
            yield p


def bad_prime_reasons(ctx: EdvContext) -> dict[int, tuple[str, ...]]:
    """Every heuristically-bad prime, each with its list of reasons.

    The primes are those p <= n and the prime factors of the context's
    integers, so is_good_prime(p, ctx) is false exactly for these p.
    """
    n = ctx.edv.n
    reasons = {int(p): [f"p <= n = {n}"] for p in sympy.primerange(2, n + 1)}
    for d, why in ctx.divisors:
        # abs: factorint lists -1 as a factor of a negative number
        for p in sympy.factorint(abs(d)):
            reasons.setdefault(int(p), []).append(why)
    return {p: tuple(dict.fromkeys(rs)) for p, rs in sorted(reasons.items())}


def generic_local_factor(edv: ElementaryDivisorVector, profiles) -> BinomialProduct:
    """The generic-prime Euler factor, with no goodness check beyond ramification.

    profiles holds one splitting profile per entry (f, lam), all at one
    prime p, as functional_equation_data takes them.  For every irreducible
    f, every place of residue degree d above p, and every cell j of the
    partition: (1 - X^(d(j-1)) Y^(d ind(j)))^(-1) with the index function
    taken on the dual partition.
    """
    factors = []
    for (f, lam), profile in zip(edv.entries, profiles, strict=True):
        if profile.ramified:
            raise RamifiedPrimeError(f"{f} is not squarefree mod {profile.prime}")
        mu = lam.dual()
        for d in profile.degrees:
            for j in range(1, lam.size + 1):
                factors.append((d * (j - 1), d * mu.ind(j), -1))
    return BinomialProduct.from_factors(factors)


# ---------------------------------------------------------------------------
# the global expression


@dataclass(frozen=True)
class GlobalZetaExpression:
    """Product of shifted Dedekind zeta factors, plus bad-prime flags.

    Each factor (f, scale, shift) denotes the zeta function of the ring of
    integers of Q[x]/(f), S-localized away from the bad primes, evaluated
    at scale*s - shift.
    """

    dedekind_factors: tuple[tuple[IntPoly, int, int], ...]
    bad_primes: tuple[tuple[int, tuple[str, ...]], ...]

    def text(self) -> str:
        return self._layout("zeta", "zeta_[{}]", str, "*")

    def latex(self) -> str:
        return self._layout(r"\zeta", r"\zeta_{{\mathbf{{Q}}[x]/({})}}", IntPoly.latex, "")

    def _layout(self, zeta: str, dedekind: str, poly, sep: str) -> str:
        """One zeta(scale*s-shift) per factor, named `zeta` over Q and by the
        `dedekind` template, filled with poly(f), otherwise; joined by `sep`."""
        pieces = []
        for f, scale, shift in self.dedekind_factors:
            name = zeta if f.degree == 1 else dedekind.format(poly(f))
            s = "s" if scale == 1 else f"{scale}s"
            arg = s if shift == 0 else f"{s}-{shift}"
            pieces.append(f"{name}({arg})")
        return sep.join(pieces) if pieces else "1"

    def to_json(self) -> dict:
        return {
            "dedekind_factors": [
                {"poly": f.to_json(), "scale": scale, "shift": shift}
                for f, scale, shift in self.dedekind_factors
            ],
            "bad_primes": {str(p): list(rs) for p, rs in self.bad_primes},
        }


def global_formula(edv: ElementaryDivisorVector, bad_primes) -> GlobalZetaExpression:
    """The global zeta expression: one Dedekind factor per entry and cell.

    Cell j of entry (f, lam) contributes the factor for Q[x]/(f) at
    ind(j)*s - (j-1), the index function taken on the dual partition.
    Bad primes (mapping p -> reasons, as from bad_prime_reasons) are
    carried through as flags.
    """
    factors = []
    for f, lam in edv.entries:
        mu = lam.dual()
        for j in range(1, lam.size + 1):
            factors.append((f, mu.ind(j), j - 1))
    flags = tuple(sorted((int(p), tuple(rs)) for p, rs in dict(bad_primes).items()))
    return GlobalZetaExpression(tuple(factors), flags)


# ---------------------------------------------------------------------------
# abscissa of convergence and pole multiplicity


def abscissa(edv: ElementaryDivisorVector) -> tuple[int, int]:
    """(alpha, beta): rightmost pole location and its multiplicity.

    alpha is the longest partition length; beta sums the last parts of the
    partitions attaining it.
    """
    alpha = max(lam.length for _, lam in edv.entries)
    beta = sum(lam.last_part for _, lam in edv.entries if lam.length == alpha)
    return alpha, beta


# ---------------------------------------------------------------------------
# functional equation


@dataclass(frozen=True)
class FunctionalEquationData:
    """Exponents of the local symmetry under inversion of the residue size.

    Predicts F(X^-1, Y^-1) = (-1)^sign_exponent X^q_exponent Y^s_exponent F(X, Y).
    The sign exponent depends on the place through the number of places
    above it; the other two do not.
    """

    sign_exponent: int
    q_exponent: int
    s_exponent: int

    def to_json(self) -> dict:
        return {
            "sign_exponent": self.sign_exponent,
            "q_exponent": self.q_exponent,
            "s_exponent": self.s_exponent,
        }


def functional_equation_data(edv: ElementaryDivisorVector, profiles) -> FunctionalEquationData:
    """The three exponents, from the elementary divisor vector and one profile per f_i."""
    profiles = list(profiles)
    if len(profiles) != len(edv.entries):
        raise ValueError("need exactly one splitting profile per entry")
    primes = {pr.prime for pr in profiles}
    if len(primes) > 1:
        raise ValueError("profiles must all live over the same prime")
    sign = 0
    q_exp = 0
    s_exp = 0
    for (f, lam), profile in zip(edv.entries, profiles):
        if not isinstance(profile, SplittingProfile):
            raise ValueError("profiles must be SplittingProfile values")
        if profile.ramified:
            raise ValueError(f"ramified profile at p = {profile.prime}")
        mu = lam.dual()
        sign += lam.size * profile.num_places
        q_exp += f.degree * math.comb(lam.size, 2)
        s_exp += f.degree * sum(j * mu.parts[j - 1] for j in range(1, mu.length + 1))
    return FunctionalEquationData(sign, q_exp, s_exp)


def verify_functional_equation(f: BinomialProduct, data: FunctionalEquationData) -> bool:
    """Check the inversion symmetry of a pure Euler factor against predicted exponents.

    Each factor (1 - X^-a Y^-b)^e equals (-1)^e X^-ae Y^-be (1 - X^a Y^b)^e,
    so a pure denominator transforms by (-1)^m X^A Y^B with m = sum(-e),
    A = sum(-e a), B = sum(-e b).  Anything with a non-negative exponent is
    not a pure Euler factor and never verifies.
    """
    m = 0
    a_total = 0
    b_total = 0
    for a, b, e in f.factors:
        if e >= 0:
            return False
        m += -e
        a_total += -e * a
        b_total += -e * b
    return (m, a_total, b_total) == (
        data.sign_exponent,
        data.q_exponent,
        data.s_exponent,
    )


def has_simple_pole_at_zero(edv: ElementaryDivisorVector) -> bool:
    """True exactly when a single irreducible acts and it is linear."""
    return len(edv.entries) == 1 and edv.entries[0][0].degree == 1


# ---------------------------------------------------------------------------
# closed forms


def zpxn_zeta(n: int) -> BinomialProduct:
    """Ideal zeta factor of Z_p[x]/(x^n): product of (1 - X^(j-1) Y^j)^(-1)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return w_lambda(Partition([1] * n))


def powerseries_ring_coeffs(n_max: int) -> list[int]:
    """First coefficients of the submodule growth of the power-series ring.

    Dirichlet coefficients a_1..a_N of the product over j >= 1 of
    zeta(js - j + 1); only factors with 2^j <= N touch the range.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("need n_max >= 1")
    coeffs = [0] * (n_max + 1)
    coeffs[1] = 1
    j = 1
    while 2 ** j <= n_max:
        folded = [0] * (n_max + 1)
        m = 1
        while m ** j <= n_max:
            weight = m ** (j - 1)
            step = m ** j
            for idx in range(1, n_max // step + 1):
                if coeffs[idx]:
                    folded[idx * step] += coeffs[idx] * weight
            m += 1
        coeffs = folded
        j += 1
    return coeffs[1:]


# ---------------------------------------------------------------------------
# exact coefficient expansion


@dataclass(frozen=True)
class DirichletCoefficients:
    """Exact coefficients a_{p^0}..a_{p^E} of a local factor at one prime."""

    prime: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least the constant coefficient")
        if self.values[0] != 1:
            raise ValueError("constant coefficient must be 1")


def _expand_binomials(factors, p: int, max_exp: int) -> list[int]:
    """Series in Y of prod (1 - p^a Y^b)^e, truncated at Y^max_exp."""
    coeffs = [0] * (max_exp + 1)
    coeffs[0] = 1
    for a, b, e in factors:
        scale = p ** a
        if e < 0:
            for _ in range(-e):
                for i in range(b, max_exp + 1):
                    coeffs[i] += scale * coeffs[i - b]
        else:
            for _ in range(e):
                for i in range(max_exp, b - 1, -1):
                    coeffs[i] -= scale * coeffs[i - b]
    return coeffs


def dirichlet_coefficients(f: BinomialProduct, p: int, max_exp: int) -> DirichletCoefficients:
    """Exact expansion of a binomial product at X = p, up to Y^max_exp."""
    if max_exp < 0:
        raise ValueError("max_exp must be >= 0")
    return DirichletCoefficients(p, tuple(_expand_binomials(f.factors, p, max_exp)))
