"""Elementary divisor vectors: which irreducibles act, with which partition.

The pipeline is minimal polynomial -> irreducible factorization -> primary
decomposition (kernels of f_i(A)^{m_i}) -> one type partition per block
from the kernel-dimension jumps of powers of f_i.  It runs in integers
throughout: each kernel basis is an integer matrix over one denominator,
and the restriction of A to its component is c/den with c an integer
matrix over the same denominator, so a block travels as the pair (c, den).
A minimal polynomial with one irreducible factor needs no split: the block
is A itself over den = 1.  Only the pairs (f_i, partition) travel onward;
the bases themselves are local, except that their denominators feed the
bad-prime heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import (
    IntMatrix,
    IntPoly,
    kernel_basis,
    kernel_dim,
    minpoly,
    poly_at_matrix,
)
from .partitions import Partition
from .polyfactor import DEFAULT_DEGREE_CAP, factor_over_z


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
    """An elementary divisor vector plus the denominators its computation leaked."""

    edv: ElementaryDivisorVector
    denominator_lcm: int


def _primary_blocks(a: IntMatrix, factored_minpoly):
    """Integer data of each primary component, one per irreducible factor.

    For f^m in factored_minpoly, the kernel basis of f(a)^m is k/den with k
    an integer matrix (kernel_basis).  Its vectors are 1 at their own free
    coordinate and 0 at the other free coordinates, so a vector of the
    component is the combination of the basis whose coefficients are its
    free coordinates: the restriction of a is c/den, with c the free
    columns of w = k*a.  Returns a list of (f, m, den, c).  The caller
    guarantees that factored_minpoly multiplies to minpoly(a); so with one
    factor the component is all of Z^n, and the block is a itself.
    """
    if len(factored_minpoly) == 1:
        [(f, m)] = factored_minpoly
        return [(f, m, 1, a)]
    n = a.n_rows
    blocks = []
    total = 0
    for f, m in factored_minpoly:
        rows, den = kernel_basis(poly_at_matrix(f, a) ** m)
        if not rows:
            raise ValueError(f"factor {f!r} has trivial kernel; not a minimal-polynomial factor")
        free = [max(j for j, x in enumerate(row) if x) for row in rows]
        k = IntMatrix(rows)
        w = k * a
        c = IntMatrix([[row[j] for j in free] for row in w.entries])
        # each row of w lies in the span of the basis: w * den == c * k
        if c * k != IntMatrix([[x * den for x in row] for row in w.entries]):
            raise RuntimeError("invariant subspace escaped its own basis")
        blocks.append((f, m, den, c))
        total += k.n_rows
    if total != n:
        raise ValueError("primary blocks do not fill the space; bad factorization")
    return blocks


def primary_decomposition(a: IntMatrix, factored_minpoly) -> list[tuple[IntPoly, IntMatrix, int]]:
    """Restriction of a to each primary component, as (f, c, den): the block is c/den."""
    if not a.is_square or a.n_rows == 0:
        raise ValueError("primary_decomposition wants a square matrix of size >= 1")
    product = IntPoly([1])
    for f, m in factored_minpoly:
        product = product * f ** m
    if product != minpoly(a):
        raise ValueError("factorization does not multiply to the minimal polynomial")
    return [(f, c, den) for f, _, den, c in _primary_blocks(a, factored_minpoly)]


def primary_type(c: IntMatrix, den: int, f: IntPoly) -> Partition:
    """Type partition of the block c/den, whose minimal polynomial is a power of f.

    The powers of f(c/den) have the kernels of the powers of the integer
    matrix g(c), where g(x) = den^d * f(x / den) and d = deg f.  Any other
    block is rejected: its kernel dimensions stall below its size.
    """
    if not c.is_square or c.n_rows == 0:
        raise ValueError("primary_type wants a square matrix of size >= 1")
    n = c.n_rows
    d = f.degree
    g = IntPoly([x * den ** (d - j) for j, x in enumerate(f.coeffs)])
    m = poly_at_matrix(g, c)
    jumps = []
    power = IntMatrix.identity(n)
    prev = 0
    while prev < n:
        power = power * m
        k = kernel_dim(power)
        jump = k - prev
        if jump == 0:
            raise ValueError("kernel dimensions stalled; minimal polynomial is not a power of f")
        if jump % d:
            raise ValueError("kernel jumps not divisible by deg f; wrong f for this block")
        jumps.append(jump // d)
        prev = k
    return Partition(jumps).dual()


def nilpotent_type(a: IntMatrix) -> Partition:
    """Partition of block sizes of a nilpotent matrix, from kernel dimensions."""
    return primary_type(a, 1, IntPoly.x_power(1))


def edv_context(a: IntMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> EdvContext:
    """Elementary divisor vector of a, plus the lcm of denominators seen on the way.

    The denominators are those of the primary kernel bases; the restricted
    blocks c/den add none, because c is integral.
    """
    if not a.is_square:
        raise ValueError("edv_context wants a square matrix")
    if a.n_rows == 0:
        raise ValueError("n = 0 is rejected everywhere")
    factored = factor_over_z(minpoly(a), degree_cap)
    lcm = 1
    pairs = []
    for f, m, den, c in _primary_blocks(a, factored):
        lam = primary_type(c, den, f)
        if lam.parts[0] != m:
            raise RuntimeError("largest part must equal the minimal-polynomial exponent")
        pairs.append((f, lam))
        lcm = math.lcm(lcm, den)
    edv = ElementaryDivisorVector.from_pairs(pairs)
    if edv.n != a.n_rows:
        raise RuntimeError("degree-weighted sizes must sum to n")
    return EdvContext(edv, lcm)


def elementary_divisor_vector(a: IntMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> ElementaryDivisorVector:
    """Canonical elementary divisor vector of an integer matrix."""
    return edv_context(a, degree_cap).edv
