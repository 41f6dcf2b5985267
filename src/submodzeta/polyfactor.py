"""Factorization of monic integer polynomials and residue degrees mod p.

Two jobs.  factor_over_z splits a monic polynomial into monic irreducible
integer factors (squarefree decomposition, factorization mod a good small
prime, Hensel lifting, subset recombination -- delegated to sympy, which
implements exactly that pipeline).  splitting_profile reads off the degrees
of the irreducible factors of f mod p by sympy's distinct-degree
factorization over GF(p); those degrees are the residue degrees of the
primes above p in the number field cut out by f.  Only the degrees and
their count are ever needed, so no equal-degree splitting happens and
everything stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.galoistools import (
    gf_ddf_zassenhaus,
    gf_degree,
    gf_from_int_poly,
    gf_sqf_p,
)

from .linalg import IntPoly

DEFAULT_DEGREE_CAP = 24


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
    constant, parts = dup_factor_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    if constant != 1:
        raise RuntimeError(f"monic input {f!r} factored with content {constant}")
    factors = []
    for part, mult in parts:
        # int(): with gmpy2 installed, sympy's ZZ elements are mpz
        factors.append((IntPoly([int(c) for c in reversed(part)]), int(mult)))
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
    be squarefree the prime ramifies in Q[x]/(f) (or at least we refuse to
    tell the difference) and the profile only carries the flag.
    """
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    if not f.is_monic or f.degree < 1:
        raise ValueError("splitting_profile wants a monic polynomial of degree >= 1")
    fbar = gf_from_int_poly(list(reversed(f.coeffs)), p)
    if not gf_sqf_p(fbar, p, ZZ):
        return SplittingProfile(p, (), True)
    degrees = []
    for g, d in gf_ddf_zassenhaus(fbar, p, ZZ):
        degrees.extend([d] * (gf_degree(g) // d))
    return SplittingProfile(p, tuple(sorted(degrees)), False)
