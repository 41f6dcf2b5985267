"""Reference code for the tests; the package pipeline does not use it.

The matrices the tests are phrased in: diagonal matrices, A + cI,
companion matrices, block sums, the nilpotent normal form n_of (one shift
block per part), the recursive normal form a_of and the permutation
conjugating it to n_of.  A plain Hermite normal form (the reference for
the oracle's vectorized reduction), the invariance test built on it (the
reference for the oracle's entrywise test), the characteristic polynomial
by the trace recursion, Python-int references for the matrix product,
polynomial evaluation and the minimal polynomial (linalg computes products
in int64 where it can, and the minimal polynomial by fraction-free Krylov
chains), and seeded unimodular matrices
with their inverses for the tests of invariance under change of basis.
All partitions of n, from sympy.  On the zeta side: the splitting profiles
of an EDV's entries at one prime, products of binomial products, the
rightmost pole of a pure Euler denominator (the reference for
zetacore.abscissa), and the exceptional bad-prime factor of the 2x2
matrices [[0, a], [0, 0]], a polynomial in X and Y over a binomial product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.utilities.iterables import partitions

from submodzeta.linalg import IntMatrix, IntPoly
from submodzeta.partitions import Partition
from submodzeta.polyfactor import SplittingProfile, splitting_profile
from submodzeta.zetacore import BinomialProduct, dirichlet_coefficients


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n with parts at most max_part, in decreasing lexicographic order."""
    for counts in partitions(n, k=max_part):
        yield Partition([part for part, m in counts.items() for _ in range(m)])


# ---------------------------------------------------------------------------
# normal forms


def diag(*entries) -> IntMatrix:
    """The diagonal matrix with the given entries."""
    n = len(entries)
    return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def plus_scalar(a: IntMatrix, c: int) -> IntMatrix:
    """A + cI."""
    return IntMatrix([[x + c * (i == j) for j, x in enumerate(row)]
                      for i, row in enumerate(a.entries)])


def companion(f: IntPoly) -> IntMatrix:
    """Companion matrix of a monic polynomial: superdiagonal ones, last row -coeffs."""
    if not f.is_monic:
        raise ValueError("companion matrix wants a monic polynomial")
    m = f.degree
    if m < 1:
        raise ValueError("companion matrix wants degree >= 1")
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i][i + 1] = 1
    for j in range(m):
        rows[m - 1][j] = -f.coeffs[j]
    return IntMatrix(rows)


def block_diag(*blocks) -> IntMatrix:
    """The block sum of square matrices, in the order given."""
    n = sum(b.n_rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        if not b.is_square:
            raise ValueError("block_diag wants square blocks")
        for i in range(b.n_rows):
            for j in range(b.n_cols):
                rows[off + i][off + j] = b.entries[i][j]
        off += b.n_rows
    return IntMatrix(rows)


def n_of(lam: Partition) -> IntMatrix:
    """Block-diagonal nilpotent normal form: one shift block per part."""
    if lam.size == 0:
        raise ValueError("empty partition")
    return block_diag(*(companion(IntPoly([0] * p + [1])) for p in lam.parts))


def a_of(lam: Partition) -> IntMatrix:
    """The recursive dual normal form.

    With parts (p1, p2, ...): zeros on the top-left p1 x p1 block, an
    identity block of size p2 sitting in the first p2 of the top p1 rows
    just right of the diagonal block, and the same construction recursively
    on the remaining parts.  A single part (or none) gives the zero matrix.
    """
    parts = lam.parts
    n = lam.size
    if len(parts) <= 1:
        return diag(*[0] * n)
    p1, p2 = parts[0], parts[1]
    sub = a_of(Partition(parts[1:]))
    rows = [[0] * n for _ in range(n)]
    for i in range(p2):
        rows[i][p1 + i] = 1
    for i in range(n - p1):
        for j in range(n - p1):
            rows[p1 + i][p1 + j] = sub.entries[i][j]
    return IntMatrix(rows)


def permutation_conjugator(lam: Partition) -> tuple[int, ...]:
    """The permutation relating the two nilpotent normal forms of dual shape.

    Returns sigma (0-based) such that with P = permutation_matrix(sigma),
    P^{-1} * a_of(dual(lam)) * P == n_of(lam).  sigma maps the position of a
    diagram cell in the column-by-column traversal to its position in the
    row-by-row traversal.
    """
    if lam.size == 0:
        raise ValueError("empty partition")
    horizontal = {}
    counter = 0
    for i, part in enumerate(lam.parts):
        for j in range(part):
            horizontal[(i, j)] = counter
            counter += 1
    sigma = []
    for j in range(lam.parts[0]):
        for i, part in enumerate(lam.parts):
            if part > j:
                sigma.append(horizontal[(i, j)])
    return tuple(sigma)


def permutation_matrix(sigma) -> IntMatrix:
    n = len(sigma)
    rows = [[0] * n for _ in range(n)]
    for k, s in enumerate(sigma):
        rows[k][s] = 1
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form of an integer matrix of full column rank.

    n x n for n columns: upper triangular, positive diagonal, and every
    entry above a diagonal d reduced into [0, d).  Its rows span the same
    lattice as the rows of m; with more rows than columns, the extra rows
    reduce to zero and are dropped.
    """
    n = m.n_cols
    if m.n_rows < n:
        raise ValueError("hnf wants at least as many rows as columns")
    rows = [list(r) for r in m.entries]
    height = len(rows)
    for col in range(n):
        # euclidean elimination below the diagonal
        while True:
            nz = [i for i in range(col, height) if rows[i][col]]
            if not nz:
                raise ValueError("singular matrix has no Hermite normal form here")
            piv = min(nz, key=lambda i: abs(rows[i][col]))
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
            done = True
            for i in range(col + 1, height):
                if rows[i][col]:
                    q = rows[i][col] // rows[col][col]
                    for k in range(col, n):
                        rows[i][k] -= q * rows[col][k]
                    if rows[i][col]:
                        done = False
            if done:
                break
        if rows[col][col] < 0:
            rows[col] = [-x for x in rows[col]]
        for i in range(col):
            q = rows[i][col] // rows[col][col]
            if q:
                for k in range(col, n):
                    rows[i][k] -= q * rows[col][k]
    return IntMatrix(rows[:n])


def is_invariant(b: IntMatrix, a: IntMatrix) -> bool:
    """Is the lattice L spanned by the rows of the HNF basis b invariant under x -> x*a?

    L*a lies in L exactly when the rows of b and of b*a together span L
    again, that is when their Hermite normal form is b.
    """
    return hnf(IntMatrix(list(b.entries) + list((b * a).entries))) == b


def charpoly(a: IntMatrix) -> IntPoly:
    """Characteristic polynomial (monic) by the trace recursion; exact integers."""
    if not a.is_square:
        raise ValueError("charpoly wants a square matrix")
    n = a.n_rows
    if n == 0:
        return IntPoly([1])

    def trace(m):
        return sum(m.entries[i][i] for i in range(n))

    coeffs = [1]  # X^n downwards
    m = a
    c = -trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        m = a * plus_scalar(m, c)
        t = trace(m)
        if t % k:
            raise RuntimeError("trace recursion must divide exactly")
        c = -t // k
        coeffs.append(c)
    return IntPoly(list(reversed(coeffs)))


# ---------------------------------------------------------------------------
# products, polynomials at matrices, minimal polynomials


def matmul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The product x*y by the schoolbook sum, in Python ints."""
    if x.n_cols != y.n_rows:
        raise ValueError("shape mismatch in matrix product")
    cols = list(zip(*y.entries))
    return IntMatrix([[sum(u * v for u, v in zip(row, col)) for col in cols] for row in x.entries])


def poly_at(f: IntPoly, a: IntMatrix) -> IntMatrix:
    """f(a) by Horner, every step through matmul."""
    result = diag(*[0] * a.n_rows)
    for c in reversed(f.coeffs):
        result = plus_scalar(matmul(result, a), c)
    return result


def _row_times(v: list[int], a: IntMatrix) -> list[int]:
    return [sum(x * y for x, y in zip(v, col)) for col in zip(*a.entries)]


def _annihilates(f: IntPoly, i: int, a: IntMatrix) -> bool:
    """Whether e_i * f(a) = 0, by Horner on the row vector."""
    v = [0] * a.n_rows
    for c in reversed(f.coeffs):
        v = _row_times(v, a)
        v[i] += c
    return not any(v)


def _vector_minpoly(i: int, a: IntMatrix) -> IntPoly:
    """Monic generator of {g : e_i * g(a) = 0}: the first linear relation among e_i a^k."""
    chain = [[int(j == i) for j in range(a.n_rows)]]
    while True:
        chain.append(_row_times(chain[-1], a))
        relations = sympy.Matrix(chain).T.nullspace()
        if relations:
            (relation,) = relations
            relation = relation / relation[-1]
            if any(not c.is_integer for c in relation):
                raise RuntimeError("minimal polynomial came out non-integral")
            return IntPoly([int(c) for c in relation])


def minpoly(a: IntMatrix) -> IntPoly:
    """The lcm of the minimal polynomials of the e_i, skipping each e_i that best(a) annihilates.

    The reference for linalg.minpoly's default, which reads the first
    relation among the powers of a instead: here the lcm over the unit
    vectors annihilates every row of a, each chain's relation comes from
    sympy's nullspace, and an e_i that the lcm so far annihilates, by an
    exact row-vector Horner in Python ints, runs no chain.
    """
    x = sympy.Symbol("x")
    best = IntPoly([1])
    for i in range(a.n_rows):
        if _annihilates(best, i, a):
            continue
        lcm = sympy.lcm(sympy.Poly(list(reversed(best.coeffs)), x),
                        sympy.Poly(list(reversed(_vector_minpoly(i, a).coeffs)), x))
        best = IntPoly([int(c) for c in reversed(lcm.all_coeffs())])
    return best


# ---------------------------------------------------------------------------
# changes of basis


def random_unimodular(rng, n: int) -> IntMatrix:
    """A product of three shears I + c*e_ij, i != j, c in [-3, 3], drawn from rng.

    For n = 1 there is no shear, and the identity comes back.
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix(m)


def int_inverse(u: IntMatrix) -> IntMatrix:
    """The inverse of a unimodular integer matrix, by Gauss-Jordan over Fraction."""
    n = u.n_rows
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(u.entries)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    out = [row[n:] for row in aug]
    if any(v.denominator != 1 for row in out for v in row):
        raise ValueError("the matrix is not unimodular")
    return IntMatrix([[int(v) for v in row] for row in out])


# ---------------------------------------------------------------------------
# zeta-side references


def profiles_at(edv, p: int) -> list[SplittingProfile]:
    """One splitting profile at p per entry of edv, as generic_local_factor takes them."""
    return [splitting_profile(f, p) for f, _ in edv.entries]


def multiply(*products: BinomialProduct) -> BinomialProduct:
    """The product of binomial products: their factor lists, merged."""
    return BinomialProduct.from_factors(t for f in products for t in f.factors)


def abscissa_from_factors(f: BinomialProduct) -> Fraction:
    """Rightmost real pole of a pure Euler denominator: max (a+1)/b."""
    if not f.factors:
        raise ValueError("empty product has no pole")
    if any(e >= 0 for _, _, e in f.factors):
        raise ValueError("mixed products are unsupported; need all exponents negative")
    return max(Fraction(a + 1, b) for a, b, _ in f.factors)


@dataclass(frozen=True)
class XYRational:
    """A polynomial numerator in X and Y times a canonical binomial product."""

    numerator: tuple[tuple[int, int, int], ...]  # (a, b, coefficient) terms X^a Y^b
    binomials: BinomialProduct

    @classmethod
    def one(cls) -> XYRational:
        return cls(((0, 0, 1),), BinomialProduct.from_factors(()))

    @property
    def is_one(self) -> bool:
        return self.numerator == ((0, 0, 1),) and not self.binomials.factors

    def __mul__(self, other):
        if isinstance(other, BinomialProduct):
            return XYRational(self.numerator, multiply(self.binomials, other))
        return NotImplemented

    def series(self, p: int, max_exp: int) -> list[int]:
        """Exact Y-series coefficients at X = p, up to Y^max_exp."""
        base = dirichlet_coefficients(self.binomials, p, max_exp)
        out = [0] * (max_exp + 1)
        for a, b, c in self.numerator:
            if b > max_exp:
                continue
            scale = c * p ** a
            for i in range(b, max_exp + 1):
                out[i] += scale * base[i - b]
        return out


def exceptional_factor_2x2(e: int) -> XYRational:
    """The extra factor for a 2x2 matrix [[0, a], [0, 0]] with p-valuation e > 0.

    Multiplies the two inverse binomials (1-Y)^(-1) (1-XY^2)^(-1); when the
    valuation is zero it degenerates to 1 (the numerator cancels the
    denominator exactly).
    """
    if not isinstance(e, int) or e < 0:
        raise ValueError("valuation must be a non-negative integer")
    if e == 0:
        return XYRational.one()
    numerator = (
        (0, 0, 1),
        (1, 2, -1),
        (e + 1, e + 1, -1),
        (e + 1, e + 2, 1),
    )
    return XYRational(numerator, BinomialProduct.from_factors([(1, 1, -1)]))
