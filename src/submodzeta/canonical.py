"""Elementary divisor vectors: which irreducibles act, with which partition.

The pipeline is minimal polynomial -> irreducible factorization -> one type
partition per factor f^m, read off (`_type`) the kernel-dimension jumps of
f(A), f(A)^2, ..., f(A)^m, and of no further power, on the whole matrix:
f(A) is invertible on every other primary component, so these kernels are
those of the f-component.  It runs in integers throughout.  Only the pairs
(f, partition) travel onward, in an EdvContext that also carries the
denominator of the kernel bases of the f(A)^m and, computed once, every
integer a bad prime divides: the resultants of each f with f' and with
every other factor, and that denominator.  The bad-prime heuristic in
zetacore only reads them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .linalg import (
    IntMatrix,
    IntPoly,
    kernel_basis,
    kernel_dim,
    minpoly,
    poly_at_matrix,
    resultant,
)
from .partitions import Partition
from .polyfactor import factor_over_z


@dataclass(frozen=True)
class ElementaryDivisorVector:
    """Pairs (monic irreducible f, partition of its multiplicities), canonically sorted."""

    entries: tuple[tuple[IntPoly, Partition], ...]

    def __post_init__(self):
        seen = set()
        previous_key = None
        for f, lam in self.entries:
            if not isinstance(f, IntPoly) or not isinstance(lam, Partition):
                raise ValueError("entries must be (IntPoly, Partition) pairs")
            if not f.is_monic or f.degree < 1:
                raise ValueError(f"{f!r} is not monic of degree >= 1")
            if lam.size == 0:
                raise ValueError("empty partition in elementary divisor vector")
            if f in seen:
                raise ValueError(f"repeated polynomial {f!r}")
            seen.add(f)
            key = (f.degree, f.coeffs)
            if previous_key is not None and key < previous_key:
                raise ValueError("entries not in canonical order; use from_pairs")
            previous_key = key

    @classmethod
    def from_pairs(cls, pairs) -> ElementaryDivisorVector:
        items = sorted(pairs, key=lambda fl: (fl[0].degree, fl[0].coeffs))
        return cls(tuple((f, lam) for f, lam in items))

    @property
    def n(self) -> int:
        """Size of any matrix with this elementary divisor vector."""
        return sum(f.degree * lam.size for f, lam in self.entries)

    def to_json(self) -> list[dict]:
        return [
            {"poly": f.to_json(), "partition": lam.to_json()} for f, lam in self.entries
        ]

    @classmethod
    def from_json(cls, data) -> ElementaryDivisorVector:
        if not isinstance(data, list):
            raise ValueError('EDV JSON must be a list of {"poly": ..., "partition": ...}')
        pairs = []
        for item in data:
            if not isinstance(item, dict) or "poly" not in item or "partition" not in item:
                raise ValueError('each EDV entry needs "poly" and "partition"')
            pairs.append(
                (IntPoly.from_json(item["poly"]), Partition.from_json(item["partition"]))
            )
        return cls.from_pairs(pairs)


@dataclass(frozen=True)
class EdvContext:
    """An elementary divisor vector, the denominators its computation leaked,
    and the integers that make a prime bad.

    divisors pairs each such integer with the reason a prime dividing it is
    bad, in this order: Res(f, f') for each f of degree >= 2 (f mod p is
    not squarefree), Res(f, g) for each pair of distinct factors, and
    denominator_lcm when it is above 1.  A prime p > n dividing none of them
    is heuristically good.  They are derived from the other two fields, so
    they take no part in equality.  A zero resultant, which only an EDV
    not read off a matrix can have, raises ValueError.
    """

    edv: ElementaryDivisorVector
    denominator_lcm: int
    divisors: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polys = [f for f, _ in self.edv.entries]
        divisors = [(resultant(f, f.derivative()), f"{f} not squarefree mod p")
                    for f in polys if f.degree >= 2]
        divisors += [(resultant(f, g), f"divides resultant of {f} and {g}")
                     for f, g in itertools.combinations(polys, 2)]
        if any(d == 0 for d, _ in divisors):
            # every prime would divide it, so good_primes would never yield
            raise ValueError("the polynomials of an EDV must be squarefree and pairwise coprime")
        if self.denominator_lcm > 1:
            divisors.append((self.denominator_lcm, "divides a primary-decomposition denominator"))
        object.__setattr__(self, "divisors", tuple(divisors))


def _type(fa: IntMatrix, d: int, m: int) -> tuple[Partition, int]:
    """Type of f from the kernel dimensions of fa, fa^2, ..., fa^m, where
    fa = f(a), d = deg f and m is the exponent of f in the minimal polynomial.

    f(a) is invertible on every primary component but the f-component, so
    the kernels of its powers on the whole space are those on the
    f-component, and the j-th jump of their dimensions is d times the
    number of parts >= j.  Each of fa, ..., fa^m must enlarge the kernel,
    and fa^(m+1) is never formed.  The kernel of fa^m is taken by
    kernel_basis for its denominator, which is returned (1 when fa^m = 0,
    the kernel being everything).
    """
    n = fa.n_rows
    jumps = []
    prev = 0
    den = 1
    for j in range(1, m + 1):
        power = fa if j == 1 else power * fa
        if j < m:
            k = kernel_dim(power)
        elif any(map(any, power.entries)):
            rows, den = kernel_basis(power)
            k = len(rows)
        else:
            k = n
        if k == prev:
            if not jumps:
                raise ValueError("f(a) is invertible; f does not divide the minimal polynomial")
            raise RuntimeError("kernel dimensions stalled below the minimal-polynomial exponent")
        if (k - prev) % d:
            raise ValueError("kernel jumps not divisible by deg f; wrong f for this matrix")
        jumps.append((k - prev) // d)
        prev = k
    return Partition(jumps).dual(), den


def edv_context(a: IntMatrix) -> EdvContext:
    """Elementary divisor vector of a, plus the lcm of denominators seen on the way.

    The denominators are those of the kernel bases of f(a)^m, one for each
    factor f^m of the minimal polynomial.
    """
    if not a.is_square:
        raise ValueError("edv_context wants a square matrix")
    if a.n_rows == 0:
        raise ValueError("n = 0 is rejected everywhere")
    lcm = 1
    pairs = []
    for f, m in factor_over_z(minpoly(a)):
        lam, den = _type(poly_at_matrix(f, a), f.degree, m)
        pairs.append((f, lam))
        lcm = math.lcm(lcm, den)
    edv = ElementaryDivisorVector.from_pairs(pairs)
    if edv.n != a.n_rows:
        raise RuntimeError("degree-weighted sizes must sum to n")
    return EdvContext(edv, lcm)
