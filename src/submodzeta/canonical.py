"""Elementary divisor vectors: which irreducibles act, with which partition.

The pipeline is minimal polynomial -> irreducible factorization -> primary
decomposition over Q (kernels of f_i(A)^{m_i}) -> one type partition per
block from the kernel-dimension jumps of powers of f_i.  Only the pairs
(f_i, partition) travel onward; the rational bases themselves are local,
except that their denominators feed the bad-prime heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    IntMatrix,
    IntPoly,
    RatMatrix,
    kernel_basis,
    kernel_dim,
    minpoly,
    poly_at_matrix,
    solve_row_combination,
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


def nilpotent_type(a: IntMatrix) -> Partition:
    """Partition of block sizes of a nilpotent matrix, from kernel dimensions."""
    if not a.is_square or a.n_rows == 0:
        raise ValueError("nilpotent_type wants a square matrix of size >= 1")
    n = a.n_rows
    if a ** n != IntMatrix.zeros(n):
        raise ValueError("matrix is not nilpotent")
    jumps = []
    power = IntMatrix.identity(n)
    prev = 0
    while prev < n:
        power = power * a
        k = kernel_dim(power)
        jumps.append(k - prev)
        prev = k
    return Partition(jumps).dual()


def _primary_blocks(a: IntMatrix, factored_minpoly):
    """Kernel bases and restricted matrices, one per irreducible factor.

    The caller guarantees that factored_minpoly multiplies to minpoly(a).
    """
    n = a.n_rows
    a_rat = RatMatrix.from_int(a)
    blocks = []
    total = 0
    for f, m in factored_minpoly:
        big = poly_at_matrix(f ** m, a)
        basis = kernel_basis(big)
        if not basis:
            raise ValueError(f"factor {f!r} has trivial kernel; not a minimal-polynomial factor")
        b = RatMatrix(basis)
        image = b * a_rat
        restricted = []
        for row in image.entries:
            combo = solve_row_combination(basis, row)
            if combo is None:
                raise AssertionError("invariant subspace escaped its own basis")
            restricted.append(combo)
        blocks.append((f, m, b, RatMatrix(restricted)))
        total += len(basis)
    if total != n:
        raise ValueError("primary blocks do not fill the space; bad factorization")
    return blocks


def primary_decomposition(a: IntMatrix, factored_minpoly) -> list[tuple[IntPoly, RatMatrix]]:
    """Restriction of a to each primary component, as a rational matrix."""
    if not a.is_square or a.n_rows == 0:
        raise ValueError("primary_decomposition wants a square matrix of size >= 1")
    product = IntPoly([1])
    for f, m in factored_minpoly:
        product = product * f ** m
    if product != minpoly(a):
        raise ValueError("factorization does not multiply to the minimal polynomial")
    return [(f, block) for f, _, _, block in _primary_blocks(a, factored_minpoly)]


def primary_type(block: RatMatrix, f: IntPoly) -> Partition:
    """Type partition of a block whose minimal polynomial is a power of f."""
    if not block.is_square or block.n_rows == 0:
        raise ValueError("primary_type wants a square matrix of size >= 1")
    n = block.n_rows
    d = f.degree
    m = poly_at_matrix(f, block)
    jumps = []
    power = RatMatrix.identity(n)
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


def edv_context(a: IntMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> EdvContext:
    """Elementary divisor vector of a, plus the lcm of denominators seen on the way."""
    if not a.is_square:
        raise ValueError("edv_context wants a square matrix")
    if a.n_rows == 0:
        raise ValueError("n = 0 is rejected everywhere")
    factored = factor_over_z(minpoly(a), degree_cap)
    blocks = _primary_blocks(a, factored)
    den = 1
    pairs = []
    for f, m, basis, restricted in blocks:
        lam = primary_type(restricted, f)
        if lam.parts[0] != m:
            raise RuntimeError("largest part must equal the minimal-polynomial exponent")
        pairs.append((f, lam))
        for row in basis.entries:
            for x in row:
                den = math.lcm(den, Fraction(x).denominator)
        den = math.lcm(den, restricted.denominator_lcm())
    edv = ElementaryDivisorVector.from_pairs(pairs)
    if edv.n != a.n_rows:
        raise AssertionError("degree-weighted sizes must sum to n")
    return EdvContext(edv, den)


def elementary_divisor_vector(a: IntMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> ElementaryDivisorVector:
    """Canonical elementary divisor vector of an integer matrix."""
    return edv_context(a, degree_cap).edv
