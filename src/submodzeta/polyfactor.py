"""Factorization of monic integer polynomials and residue degrees mod p.

Two jobs, both over the distinct-degree kernel of `linalg`
(`distinct_degree`), which yields for d = 1, 2, ... the product of the
factors of degree d of f mod p, in plain Python integers.

factor_over_z splits a monic polynomial into monic irreducible integer
factors.  The power of x comes off first, then sympy's squarefree
decomposition splits the rest.  A squarefree part of degree >= 2 that stays
irreducible mod one of the small primes _INERT_TRIALS is irreducible over
Z, since a monic factorization over Z survives mod q: the first part the
kernel yields mod q then has degree d equal to the part's own.  Every other
part goes to sympy's Zassenhaus pipeline (factorization mod a good small
prime, Hensel lifting, subset recombination).

splitting_profile reads off the degrees of the irreducible factors of f mod
p, the residue degrees of the primes above p in the number field cut out by
f.  Only the degrees and their count are ever needed, so no equal-degree
splitting happens and everything stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_factor_sqf
from sympy.polys.sqfreetools import dup_sqf_list

from .linalg import IntPoly, distinct_degree

DEFAULT_DEGREE_CAP = 24
# primes at which factor_over_z looks for a squarefree part that stays irreducible
_INERT_TRIALS = (2, 3, 5, 7, 11, 13)


class DegreeCapError(ValueError):
    """Factorization refused: degree beyond DEFAULT_DEGREE_CAP."""


@dataclass(frozen=True)
class SplittingProfile:
    """How a prime splits in Q[x]/(f): one residue degree per place above p.

    If f mod p is not squarefree the profile is flagged ramified and carries
    no degrees; downstream code must treat such primes as bad.
    """

    prime: int
    degrees: tuple[int, ...]
    ramified: bool

    @property
    def num_places(self) -> int:
        return len(self.degrees)


def factor_over_z(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Monic irreducible integer factors of f with multiplicities.

    Factors come back sorted by (degree, coefficients); their product is
    checked to reconstruct the input exactly.
    """
    if not f.is_monic:
        raise ValueError("factor_over_z wants a monic polynomial")
    if f.degree < 1:
        raise ValueError("factor_over_z wants degree >= 1")
    if f.degree > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(
            f"degree {f.degree} exceeds the factorization cap {DEFAULT_DEGREE_CAP}; "
            "supply the factorization directly to bypass"
        )
    # x^j comes off first, as in sympy's dup_factor_list: dup_sqf_list alone
    # takes two to four times as long on x^k as this whole function
    j = next(i for i, c in enumerate(f.coeffs) if c)
    factors = [(IntPoly((0, 1)), j)] if j else []
    rest = f.coeffs[j:]
    parts = [(rest, 1)] if len(rest) == 2 else []
    if len(rest) > 2:
        constant, sqf = dup_sqf_list([ZZ(c) for c in reversed(rest)], ZZ)
        if constant != 1:
            raise RuntimeError(f"monic input {f!r} factored with content {constant}")
        # int(): with gmpy2 installed, sympy's ZZ elements are mpz
        parts = [([int(c) for c in reversed(g)], int(m)) for g, m in sqf]
    for g, mult in parts:
        if g[-1] != 1:
            raise RuntimeError(f"squarefree part {g!r} of monic {f!r} is not monic")
        if len(g) == 2 or any(next(distinct_degree(g, q))[0] == len(g) - 1
                              for q in _INERT_TRIALS):
            irreducibles = [g]
        else:
            content, found = dup_zz_factor_sqf([ZZ(c) for c in reversed(g)], ZZ)
            if content != 1:
                raise RuntimeError(f"squarefree part {g!r} factored with content {content}")
            irreducibles = [[int(c) for c in reversed(h)] for h in found]
        factors += [(IntPoly(h), mult) for h in irreducibles]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    product = IntPoly([1])
    for g, m in factors:
        product = product * g ** m
    if product != f:
        raise RuntimeError(f"factor product {product!r} does not reconstruct {f!r}")
    return factors


def splitting_profile(f: IntPoly, p: int) -> SplittingProfile:
    """Degrees of the irreducible factors of f mod p, by distinct-degree steps.

    The caller promises f monic irreducible over Q.  When f mod p fails to
    be squarefree, which is when the degrees of the kernel's parts sum to
    less than deg f, the prime ramifies in Q[x]/(f) (or at least we refuse
    to tell the difference) and the profile only carries the flag.
    """
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    if not f.is_monic or f.degree < 1:
        raise ValueError("splitting_profile wants a monic polynomial of degree >= 1")
    parts = list(distinct_degree(f.coeffs, p))
    if sum(len(g) - 1 for _, g in parts) < f.degree:
        return SplittingProfile(p, (), True)
    return SplittingProfile(p, tuple(d for d, g in parts for _ in range((len(g) - 1) // d)),
                            False)
