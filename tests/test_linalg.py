import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.densearith import dup_div
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_factor, gf_mul, gf_sqf_p

from submodzeta import canonical, linalg
from submodzeta.canonical import ElementaryDivisorVector
from submodzeta.linalg import (
    IntMatrix,
    IntPoly,
    kernel_basis,
    kernel_dim,
    minpoly,
    poly_at_matrix,
    resultant,
)
from submodzeta.partitions import Partition
from submodzeta.polyfactor import factor_over_z

import linalg_helpers
from linalg_helpers import (
    a_of,
    block_diag,
    charpoly,
    companion,
    diag,
    hnf,
    matmul,
    n_of,
    partitions_of,
    permutation_conjugator,
    permutation_matrix,
    plus_scalar,
    poly_at,
)


X = IntPoly((0, 1))


def _zeros(n):
    return diag(*[0] * n)


def _rank(m: IntMatrix) -> int:
    return sympy.Matrix(m.entries).rank()


def _divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of f by a monic g, from sympy's dense division over ZZ."""
    q, r = dup_div(list(reversed(f.coeffs)), list(reversed(g.coeffs)), ZZ)
    return IntPoly([int(c) for c in reversed(q)]), IntPoly([int(c) for c in reversed(r)])


def test_intpoly_basics():
    f = IntPoly((2, -3, 1))  # x^2 - 3x + 2
    assert f.degree == 2
    assert f.is_monic
    assert str(f) == "x^2 - 3*x + 2"
    assert [sum(c * x ** k for k, c in enumerate(f.coeffs)) for x in (1, 2, 3)] == [0, 0, 2]
    assert (IntPoly((-1, 1)) * IntPoly((-2, 1))) == f
    assert f.derivative() == IntPoly((-3, 2))
    assert IntPoly((1, 0, 0)).degree == 0  # trailing zeros stripped
    assert IntPoly(()).coeffs == () and IntPoly(()).degree == -1
    assert f.to_json() == [2, -3, 1]
    assert IntPoly.from_json([2, -3, 1]) == f


def test_intpoly_text_and_latex_layouts():
    f = IntPoly((3, -2, 0, -5, 1))  # top power, coefficient, bare x and constant terms
    assert str(f) == "x^4 - 5*x^3 - 2*x + 3"
    assert f.latex() == "x^{4} - 5x^{3} - 2x + 3"
    g = IntPoly((1, 0, -1))  # a leading minus
    assert str(g) == "-x^2 + 1"
    assert g.latex() == "-x^{2} + 1"


def test_intpoly_errors():
    with pytest.raises(ValueError):
        IntPoly((1, 2.5))
    with pytest.raises(ValueError):
        X ** -1


def test_resultant():
    # disc-style: res(x^2+1, 2x) = 4
    f = IntPoly((1, 0, 1))
    assert resultant(f, f.derivative()) == 4
    assert resultant(IntPoly((-2, 1)), IntPoly((-5, 1))) == -3
    # multiplicative in the first argument
    g = IntPoly((1, 1))  # x + 1
    h = IntPoly((3, 1))  # x + 3
    k = IntPoly((-1, 2, 1))
    assert resultant(g * h, k) == resultant(g, k) * resultant(h, k)
    with pytest.raises(ValueError):
        resultant(IntPoly(()), g)
    # deg f < deg g: Res(x - a, g) = g(a).  sympy 1.14's resultant and
    # dup_resultant both give -5 for this pair, Res(g, x - a): `resultant`
    # passes the higher-degree polynomial first and fixes the sign.
    cubic = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    x_minus_2 = IntPoly((-2, 1))
    cubic_at_2 = sum(c * 2 ** k for k, c in enumerate(cubic.coeffs))
    assert resultant(x_minus_2, cubic) == cubic_at_2 == 5
    # Res(g, f) = (-1)^(deg f * deg g) Res(f, g)
    assert resultant(cubic, x_minus_2) == -5
    quad = IntPoly((2, 0, 1))  # x^2 + 2
    assert resultant(quad, cubic) == resultant(cubic, quad) == 19  # |g(i*sqrt 2)|^2
    for a, b in ((x_minus_2, cubic), (quad, cubic), (f, k), (g * h, cubic)):
        assert resultant(b, a) == (-1) ** (a.degree * b.degree) * resultant(a, b)


def _sylvester(f: IntPoly, g: IntPoly) -> sympy.Matrix:
    """The Sylvester matrix of f and g: deg g shifted rows of f over deg f of g."""
    m, n = f.degree, g.degree
    fs, gs = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    return sympy.Matrix([[0] * i + fs + [0] * (n - 1 - i) for i in range(n)]
                        + [[0] * i + gs + [0] * (m - 1 - i) for i in range(m)])


def _polys(max_degree):
    """Integer polynomials of degree 0..max_degree with a nonzero leading coefficient,
    negative and non-monic ones included."""
    return st.integers(0, max_degree).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d), st.sampled_from([-5, -2, -1, 1, 3])
    )).map(lambda drawn: IntPoly(drawn[0] + [drawn[1]]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f=_polys(6), g=_polys(6))
def test_resultant_is_the_determinant_of_the_sylvester_matrix(f, g):
    """Both orders of each pair, so deg f below, equal to and above deg g,
    constants included: sympy's division-free determinant of the Sylvester
    matrix agrees."""
    assert resultant(f, g) == _sylvester(f, g).det(method="berkowitz")
    assert resultant(g, f) == _sylvester(g, f).det(method="berkowitz")


def test_resultants_of_high_degree_are_quick():
    """Res(f, f') of x^400 - 2, and of a dense polynomial of degree 100; the
    Bareiss determinant of the Sylvester matrix took 22.9 s and 1.0 s."""
    rng = random.Random(100)
    dense = IntPoly([rng.randint(-9, 9) for _ in range(100)] + [1])
    for f in (IntPoly([-2] + [0] * 399 + [1]), dense):
        start = time.perf_counter()
        assert resultant(f, f.derivative()) != 0
        assert time.perf_counter() - start < 0.5


def _gf_reference_parts(f, p):
    """(d, the product of the distinct monic irreducible factors of degree d
    of f mod p) for each d that has one, read off sympy's gf_factor."""
    parts = {}
    for g, _ in gf_factor([c % p for c in reversed(f)], p, ZZ)[1]:
        parts[len(g) - 1] = gf_mul(parts.get(len(g) - 1, [1]), g, p, ZZ)
    return [(d, [int(c) for c in reversed(g)]) for d, g in sorted(parts.items())]


def test_distinct_degree_matches_sympy():
    """The kernel against sympy's galoistools on 1400 seeded draws: 200 at
    each p in {2, 3, 5, 7, 13, 89, 10007}, f of degree 1-10 a product of
    random monic factors, half of them with one factor raised to a power.
    The parts match gf_factor's factors grouped by degree; their degrees sum
    to deg f exactly when gf_sqf_p says f is squarefree, and then they are
    gf_ddf_zassenhaus's."""
    rng = random.Random(37)
    repeated = equal = 0
    for p in (2, 3, 5, 7, 13, 89, 10007):
        for _ in range(200):
            n = rng.randint(1, 10)
            f, room = [1], n
            if n >= 2 and rng.random() < 0.5:
                k = rng.randint(1, n // 2)
                g = [1] + [rng.randrange(p) for _ in range(k)]
                for _ in range(rng.randint(2, n // k)):
                    f, room = gf_mul(f, g, p, ZZ), room - k
            while room:
                k = rng.randint(1, room)
                f, room = gf_mul(f, [1] + [rng.randrange(p) for _ in range(k)], p, ZZ), room - k
            coeffs = [int(c) for c in reversed(f)]
            parts = list(linalg.distinct_degree(coeffs, p))
            assert parts == _gf_reference_parts(coeffs, p), (p, coeffs)
            squarefree = gf_sqf_p(f, p, ZZ)
            assert (sum(len(g) - 1 for _, g in parts) == n) == squarefree
            if squarefree:
                assert parts == [(d, [int(c) for c in reversed(g)])
                                 for g, d in gf_ddf_zassenhaus(f, p, ZZ)]
            factors = gf_factor(f, p, ZZ)[1]
            repeated += any(m > 1 for _, m in factors)
            equal += len({len(g) for g, _ in factors}) < len(factors)
    # the campaign reaches repeated factors and factors of equal degree
    assert repeated > 600 and equal > 600


def test_companion_examples():
    assert companion(X ** 2) == IntMatrix([[0, 1], [0, 0]])
    assert companion(IntPoly((1, 0, 1))) == IntMatrix([[0, 1], [-1, 0]])
    assert companion(IntPoly((-3, 1))) == IntMatrix([[3]])
    with pytest.raises(ValueError):
        companion(IntPoly((1, 2)))
    with pytest.raises(ValueError):
        companion(IntPoly((5,)))


def test_companion_has_its_polynomial():
    for f in (X ** 3, IntPoly((1, 0, 1)), IntPoly((2, -3, 1)), IntPoly((-1, -1, 0, 1))):
        c = companion(f)
        assert charpoly(c) == f
        assert minpoly(c) == f
        assert poly_at_matrix(f, c) == _zeros(f.degree)


def test_n_of():
    assert n_of(Partition([2])) == IntMatrix([[0, 1], [0, 0]])
    assert n_of(Partition([1, 1])) == _zeros(2)
    assert n_of(Partition([2, 1])) == IntMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        n_of(Partition([]))


def test_a_of():
    assert a_of(Partition([4])) == _zeros(4)
    assert a_of(Partition([1, 1])) == IntMatrix([[0, 1], [0, 0]])
    assert a_of(Partition([2, 1])) == IntMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert a_of(Partition([])) == IntMatrix(())


def test_permutation_conjugator_property():
    # P^{-1} A(dual) P = N(lam), exhaustively for |lam| <= 8
    for n in range(1, 9):
        for lam in partitions_of(n):
            sigma = permutation_conjugator(lam)
            assert sorted(sigma) == list(range(n))
            p = permutation_matrix(sigma)
            pinv = IntMatrix(list(zip(*p.entries)))
            assert pinv * p == diag(*[1] * n)
            assert pinv * a_of(lam.dual()) * p == n_of(lam)


def test_hnf_examples():
    assert hnf(IntMatrix([[2, 0], [0, 1]])) == IntMatrix([[2, 0], [0, 1]])
    assert hnf(IntMatrix([[0, 1], [2, 0]])) == IntMatrix([[2, 0], [0, 1]])
    assert hnf(IntMatrix([[1, 5], [0, 2]])) == IntMatrix([[1, 1], [0, 2]])
    with pytest.raises(ValueError):
        hnf(IntMatrix([[1, 2], [2, 4]]))


def test_hnf_idempotent_and_preserves_row_span():
    rng = random.Random(7)
    found = 0
    while found < 25:
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        d = sympy.Matrix(m.entries).det()
        if d == 0 or abs(d) > 64:
            continue
        found += 1
        h = hnf(m)
        assert hnf(h) == h
        # triangular, positive diagonal, reduced above the diagonal
        for i in range(3):
            assert h.entries[i][i] > 0
            for j in range(3):
                if j < i:
                    assert h.entries[i][j] == 0
                elif j > i:
                    assert 0 <= h.entries[i][j] < h.entries[j][j]
        # same row span: each basis solves integrally over the other
        assert abs(d) == sympy.Matrix(h.entries).det()
        for src, dst in ((m, h), (h, m)):
            # rows of src must be integer combinations of rows of dst
            for row in src.entries:
                assert _solve_int(dst, row) is not None


def _solve_int(basis: IntMatrix, target):
    """Integer coefficients c with c * basis = target, else None."""
    n = basis.n_rows
    frac_rows = [[Fraction(x) for x in row] for row in basis.entries]
    # gaussian elimination on the transposed system
    a = [[frac_rows[r][c] for r in range(n)] for c in range(n)]
    b = [Fraction(t) for t in target]
    piv = []
    for col in range(n):
        p = next((r for r in range(col, n) if a[r][col] != 0), None)
        if p is None:
            return None
        a[col], a[p] = a[p], a[col]
        b[col], b[p] = b[p], b[col]
        inv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - f * b[col]
    coeffs = [b[r] / a[r][r] for r in range(n)]
    return coeffs if all(c.denominator == 1 for c in coeffs) else None


def test_charpoly_and_det():
    assert charpoly(IntMatrix([[1, 0], [0, 2]])) == IntPoly((2, -3, 1))
    assert charpoly(_zeros(3)) == X ** 3
    rng = random.Random(3)
    for _ in range(20):
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        # det(xI - A) at x = 0 is (-1)^3 det(A)
        assert charpoly(m).coeffs[0] == -sympy.Matrix(m.entries).det()


def _rank_and_det(m: IntMatrix) -> tuple[int, int]:
    """The rank and the last pivot, signed by the order of the pivot columns,
    of kernel_dim's reduction: each row reduced against the nonzero ones above.
    A pivot's col counts the columns left, all pivots of later rows when the
    rank is full, that come before it."""
    echelon = []
    for row in m.entries:
        row = linalg._eliminate(list(row), echelon)
        col = next((k for k, x in enumerate(row) if x), None)
        if col is not None:
            echelon.append((col, row))
    pivot = echelon[-1][1][echelon[-1][0]] if echelon else 1
    return len(echelon), (-1) ** sum(col for col, _ in echelon) * pivot


def test_det_and_rank_agree_with_sympy():
    """The fraction-free reduction of kernel_dim gives the rank, and for a
    square matrix of full rank its last pivot, signed by the order of the
    pivot columns, is the determinant; singular and swapped inputs included."""
    assert kernel_dim(IntMatrix(())) == 0 and _rank_and_det(IntMatrix(())) == (0, 1)
    assert _rank_and_det(permutation_matrix((1, 2, 0))) == (3, 1)
    assert _rank_and_det(permutation_matrix((1, 0, 2))) == (3, -1)
    assert kernel_dim(IntMatrix([[0, 0], [0, 5]])) == 1
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        m = IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else [0] * n
                       for row in left])
        rank, det = _rank_and_det(m)
        assert rank == _rank(m) == n - kernel_dim(m)
        if rank == n:
            assert det == sympy.Matrix(m.entries).det()
        wide = IntMatrix([list(row) + [rng.randint(-2, 2)] for row in m.entries])
        assert n - kernel_dim(wide) == _rank(wide)


def test_minpoly_examples():
    assert minpoly(_zeros(3)) == X
    assert minpoly(n_of(Partition([2, 1]))) == X ** 2
    assert minpoly(IntMatrix([[1, 0], [0, 2]])) == IntPoly((2, -3, 1))
    assert minpoly(diag(1, 1, 1, 1)) == IntPoly((-1, 1))


def test_minpoly_self_checks_raise(monkeypatch):
    """A chain of n + 1 independent terms, and a relation whose last entry
    does not divide the others, raise instead of returning a polynomial."""
    monkeypatch.setattr(linalg, "_relations", lambda rows: (None for _ in rows))
    with pytest.raises(RuntimeError, match="n \\+ 1 terms"):
        minpoly(diag(1, 2))
    with pytest.raises(RuntimeError, match="n \\+ 1 terms"):
        minpoly(diag(1, 2), [1, 1])
    monkeypatch.setattr(linalg, "_relations", lambda rows: iter([None, [1, 3, 2]]))
    with pytest.raises(RuntimeError, match="non-integral"):
        minpoly(diag(1, 2))


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        mp = minpoly(m)
        cp = charpoly(m)
        assert mp.is_monic
        q, r = _divmod(cp, mp)
        assert r == IntPoly()
        assert poly_at(mp, m) == _zeros(n)
        for f, _ in factor_over_z(mp):
            assert poly_at(_divmod(mp, f)[0], m) != _zeros(n)
        assert mp == linalg_helpers.minpoly(m)


def test_rank_and_kernel():
    assert kernel_dim(_zeros(3)) == 3
    assert kernel_dim(n_of(Partition([3]))) == 1
    assert kernel_dim(diag(1, 1, 1, 1, 1)) == 0
    m = IntMatrix([[1, 2], [2, 4]])
    assert kernel_dim(m) == 1
    basis, den = kernel_basis(m)
    assert len(basis) == 1 and den == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 2 == 0 and v[0] * 2 + v[1] * 4 == 0


def _pivot_rows(m: IntMatrix) -> list[int]:
    """Rows of m independent of the rows above them, by rank alone."""
    pivots = []
    for i in range(m.n_rows):
        if _rank(IntMatrix([m.entries[j] for j in pivots + [i]])) == len(pivots) + 1:
            pivots.append(i)
    return pivots


def _rank_deficient(rng, n_rows=None) -> IntMatrix:
    """A seeded integer matrix L*R of rank below its row count, n_rows
    rows (2 to 7 when not given)."""
    n_rows, n_cols = n_rows or rng.randint(2, 7), rng.randint(1, 7)
    r = rng.randint(0, min(n_rows - 1, n_cols))
    left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n_rows)]
    right = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(r)]
    return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                      if r else [0] * n_cols for row in left])


def test_kernel_basis_properties_on_rank_deficient_matrices():
    rng = random.Random(19)
    matrices = [_rank_deficient(rng) for _ in range(80)]
    # the zero matrix, whose basis is the unit vectors over den 1, and a tall one
    matrices += [_zeros(4), _rank_deficient(rng, 11)]
    assert kernel_basis(_zeros(4)) == ([[int(i == j) for j in range(4)] for i in range(4)], 1)
    for m in matrices:
        rows, den = kernel_basis(m)
        pivots = _pivot_rows(m)
        free = [i for i in range(m.n_rows) if i not in pivots]
        assert den >= 1 and len(rows) == len(free) == m.n_rows - _rank(m)
        for x in rows:
            assert all(sum(x[i] * m.entries[i][j] for i in range(m.n_rows)) == 0
                       for j in range(m.n_cols))
        assert _rank(IntMatrix(rows)) == len(rows)
        for s, x in enumerate(rows):
            assert [x[i] for i in free] == [den if t == s else 0 for t in range(len(free))]
            assert all(x[i] == 0 for i in pivots if i > free[s])
        # den is the least common denominator of the basis rows / den
        assert math.gcd(den, *(v for x in rows for v in x)) == 1
        # the same basis as sympy's nullspace of the transpose
        reference = sympy.Matrix(list(zip(*m.entries))).nullspace()
        assert [[Fraction(v, den) for v in x] for x in rows] == [
            [Fraction(int(v.p), int(v.q)) for v in vec] for vec in reference]


def _derogatory(rng) -> tuple[IntMatrix, IntPoly, list]:
    """A conjugated block sum with a repeated factor, its minimal polynomial,
    and its blocks (f, k), one companion of f^k each."""
    polys = [X, IntPoly((-1, 1)), IntPoly((2, 1)), IntPoly((1, 0, 1)),
             IntPoly((-2, 0, 1)), IntPoly((-1, -1, 0, 1))]
    while True:
        f = rng.choice(polys)
        blocks = [(f, rng.randint(1, 2)), (f, rng.randint(1, 2))]
        blocks += [(rng.choice(polys), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        if sum(g.degree * k for g, k in blocks) <= 10:
            break
    top = {}
    for g, k in blocks:
        top[g] = max(top.get(g, 0), k)
    expected = IntPoly([1])
    for g, k in top.items():
        expected = expected * g ** k
    a = block_diag(*(companion(g ** k) for g, k in blocks))
    n = a.n_rows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return IntMatrix(u) * a * IntMatrix(inv), expected, blocks


_SMALL_IRREDUCIBLES = [X, IntPoly((-1, 1)), IntPoly((2, 1)), IntPoly((1, 0, 1)),
                       IntPoly((-2, 0, 1)), IntPoly((1, 1, 1)), IntPoly((-1, -1, 0, 1))]


def _edv_of(blocks) -> ElementaryDivisorVector:
    """The EDV of a block sum of companions of f^k, for (f, k) in blocks."""
    parts = {}
    for f, k in blocks:
        parts.setdefault(f, []).append(k)
    return ElementaryDivisorVector.from_pairs((f, Partition(ks)) for f, ks in parts.items())


def _block_companion(blocks, seed) -> IntMatrix:
    """U * diag(companion(f^k) for (f, k) in blocks) * U^-1, U seeded unimodular."""
    base = block_diag(*(companion(f ** k) for f, k in blocks))
    u = linalg_helpers.random_unimodular(random.Random(seed), base.n_rows)
    return matmul(matmul(u, base), linalg_helpers.int_inverse(u))


def test_minpoly_annihilates_and_is_minimal_on_derogatory_matrices():
    rng = random.Random(29)
    for _ in range(25):
        a, expected, _ = _derogatory(rng)
        n = a.n_rows
        mp = minpoly(a)
        assert mp == expected and mp.degree < n
        assert poly_at(mp, a) == _zeros(n)
        for f, _ in factor_over_z(mp):
            q, r = _divmod(mp, f)
            assert r == IntPoly()
            assert poly_at(q, a) != _zeros(n)


def _counted_edv_context(monkeypatch, a):
    """edv_context(a), with the start vector of each minpoly call it makes
    (None for the default, the powers of a)."""
    calls = []
    original = canonical.minpoly

    def counted(m, v=None):
        calls.append(None if v is None else list(v))
        return original(m, v)

    monkeypatch.setattr(canonical, "minpoly", counted)
    return canonical.edv_context(a), calls


def test_edv_context_runs_one_chain_and_falls_back_to_the_unit_vectors(monkeypatch):
    # a conjugated block sum of companions of f^k, as analyze-structured builds it
    x2p1, x3mxm1, xm1 = IntPoly((1, 0, 1)), IntPoly((-1, -1, 0, 1)), IntPoly((-1, 1))
    blocks = [(x2p1, 2), (x2p1, 1), (x3mxm1, 1), (x3mxm1, 1), (xm1, 2)]
    a = _block_companion(blocks, 3)
    assert a.n_rows == 14
    ctx, calls = _counted_edv_context(monkeypatch, a)
    assert ctx.edv == _edv_of(blocks)
    assert calls == [list(range(1, 15))]
    assert minpoly(a, calls[0]) == x2p1 ** 2 * x3mxm1 * xm1 ** 2 == linalg_helpers.minpoly(a)

    # (1, 2) * A = 0, so the chain of (1, 2) gives x, whose kernel has
    # dimension 1 < 2; the types are read again off the minimal polynomial
    a = IntMatrix([[-2, -2], [1, 1]])
    ctx, calls = _counted_edv_context(monkeypatch, a)
    assert ctx.edv == _edv_of([(X, 1), (IntPoly((1, 1)), 1)])
    assert calls == [[1, 2], None]
    assert minpoly(a, [1, 2]) == X
    assert minpoly(a) == IntPoly((0, 1, 1)) == linalg_helpers.minpoly(a)

    # a chain of degree n gives the characteristic polynomial, and the one pass
    ctx, calls = _counted_edv_context(monkeypatch, companion(x3mxm1))
    assert ctx.edv == _edv_of([(x3mxm1, 1)]) and calls == [[1, 2, 3]]


def test_edv_context_reads_the_known_edv_and_falls_back_on_a_stated_share(monkeypatch):
    """Conjugated block companions (n <= 8) and derogatory block sums
    (n <= 10), 200 seeded draws of each: edv_context returns the EDV of
    their blocks.  The chain of (1, ..., n) falls short of the minimal
    polynomial, and minpoly runs a second time, on 1 block companion and 6
    derogatory sums."""
    rng = random.Random(41)
    fallbacks = [0, 0]
    for draw in range(400):
        if draw % 2:
            a, _, blocks = _derogatory(rng)
        else:
            blocks = None
            while blocks is None or sum(f.degree * k for f, k in blocks) > 8:
                blocks = [(rng.choice(_SMALL_IRREDUCIBLES), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 4))]
            a = _block_companion(blocks, rng.randrange(2 ** 32))
        ctx, calls = _counted_edv_context(monkeypatch, a)
        assert ctx.edv == _edv_of(blocks)
        assert calls[0] == list(range(1, a.n_rows + 1)) and calls[1:] in ([], [None])
        fallbacks[draw % 2] += len(calls) - 1
    assert fallbacks == [1, 6]


def test_minpoly_sees_rows_that_are_multiples_of_the_word_primes():
    """Rows of A equal to a word-size prime, or to a product of two, are not
    zero: a zero test modulo such primes alone would miss them."""
    q1, q2 = 1073741789, 1073741783  # the two largest primes below 2^30
    for c in (q1, -q1, q1 * q2, 3 * q1 * q2):
        a = IntMatrix([[0, 0], [c, 0]])
        assert minpoly(a) == X ** 2 == linalg_helpers.minpoly(a)
        assert canonical.edv_context(a).edv == _edv_of([(X, 2)])


def test_minpoly_bound_counts_the_growth_of_powers():
    """A row of A^2 equal to the prime q = 1073741789 while 2 max|A|^2 < q.

    An entry of A^2 is at most n max|A|^2, so a zero test of x^2 at A modulo
    q alone, with a bound that dropped the factor n, would pass e_2 as
    annihilated and miss the chain of e_2, whose polynomial is x^4.
    """
    n = 7
    q = 1073741789
    top = math.isqrt((q - 1) // 2)
    assert 2 * top ** 2 < q < n * top ** 2
    rest = q - 2 * top ** 2
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = 1  # e_0 -> e_1 -> 0: the chain of e_0 gives x^2
    rows[2][3:] = [top, top, rest // top, rest % top]
    for i, s in zip(range(3, 7), (top, top, top, 1)):
        rows[i][0] = s
    a = IntMatrix(rows)
    assert matmul(a, a).entries[2] == (q,) + (0,) * (n - 1)
    assert minpoly(a) == X ** 4 == linalg_helpers.minpoly(a)
    # kernels of A, ..., A^4 of dimension 4, 5, 6, 7
    assert canonical.edv_context(a).edv == _edv_of([(X, 4), (X, 1), (X, 1), (X, 1)])


def test_minpoly_and_edv_on_entries_past_2_62():
    """Huge entries take the Python-int products and the object-dtype reduction mod q."""
    x2p1 = IntPoly((1, 0, 1))
    base = block_diag(companion(x2p1), companion(x2p1), companion(IntPoly((-5, 1))))
    shift = [[0] * 5 for _ in range(5)]
    shift[0][4], shift[2][1] = 2 ** 70, 3 * 2 ** 65  # shift^2 = 0, so (I + shift)^-1 = I - shift
    u = plus_scalar(IntMatrix(shift), 1)
    inv = plus_scalar(IntMatrix([[-x for x in row] for row in shift]), 1)
    assert matmul(u, inv) == diag(1, 1, 1, 1, 1)
    a = matmul(matmul(u, base), inv)
    assert max(abs(x) for row in a.entries for x in row) > 2 ** 62
    mp = minpoly(a)
    assert mp == x2p1 * IntPoly((-5, 1)) == linalg_helpers.minpoly(a)
    edv = canonical.edv_context(a).edv
    assert edv == canonical.edv_context(base).edv
    assert edv.to_json() == [{"poly": [-5, 1], "partition": [1]},
                             {"poly": [1, 0, 1], "partition": [1, 1]}]


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(IntMatrix)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(
    # dense, mostly cyclic
    st.integers(1, 10).flatmap(lambda n: _square(n, st.one_of(
        st.integers(-9, 9), st.integers(-10 ** 20, 10 ** 20)))),
    # conjugated block sums with a repeated factor
    st.integers(0, 2 ** 32).map(lambda seed: _derogatory(random.Random(seed))[0]),
    # block diagonal, the first block repeated
    st.lists(st.integers(1, 3).flatmap(lambda n: _square(n, st.integers(-3, 3))),
             min_size=1, max_size=2).map(lambda blocks: block_diag(*blocks, blocks[0])),
))
def test_minpoly_matches_the_per_row_reference(a):
    assert minpoly(a) == linalg_helpers.minpoly(a)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(
    # unimodular conjugates of block companions, n <= 8
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_SMALL_IRREDUCIBLES), st.integers(1, 3)),
                 min_size=1, max_size=4)
        .filter(lambda blocks: sum(f.degree * k for f, k in blocks) <= 8),
        st.integers(0, 2 ** 32),
    ).map(lambda args: _block_companion(*args)),
    # conjugated block sums with a repeated factor
    st.integers(0, 2 ** 32).map(lambda seed: _derogatory(random.Random(seed))[0]),
))
def test_minpoly_past_the_first_chain_matches_the_reference(a):
    """Conjugated block sums, where the chain of (1, ..., n), which
    edv_context runs first, can fall short of the minimal polynomial; the
    mostly cyclic inputs of the property above rarely make it fall short.
    Its polynomial divides the minimal polynomial."""
    mp = minpoly(a)
    assert mp == linalg_helpers.minpoly(a)
    assert _divmod(mp, minpoly(a, range(1, a.n_rows + 1)))[1] == IntPoly()


def test_poly_at_matrix():
    assert poly_at_matrix(X ** 2, n_of(Partition([2]))) == _zeros(2)
    m = IntMatrix([[1, 1], [0, 1]])
    assert poly_at_matrix(IntPoly((1, 1)), m) == plus_scalar(m, 1)


def test_matmul_matpow():
    a = IntMatrix([[1, 1], [0, 1]])
    assert poly_at_matrix(IntPoly((1,)), a) == diag(1, 1)
    assert poly_at_matrix(X ** 5, a) == IntMatrix([[1, 5], [0, 1]])
    assert a * a == IntMatrix([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        a * _zeros(3)


_MAGNITUDES = (2 ** 20, 2 ** 31, 2 ** 40, 10 ** 20)


def _matrix(rng, n_rows, n_cols, top):
    """Entries up to top, with its extremes and small values mixed in."""
    pick = (lambda: rng.randint(-top, top), lambda: rng.choice([-top, top]),
            lambda: rng.randint(-2, 2))
    return IntMatrix([[rng.choice(pick)() for _ in range(n_cols)] for _ in range(n_rows)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=3, max_size=3),
       st.lists(st.sampled_from(_MAGNITUDES), min_size=3, max_size=3),
       st.randoms(use_true_random=False),
       st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5), st.integers(0, 3))
def test_products_match_the_python_reference(dims, tops, rng, coeffs, k):
    (rows, inner, cols), (tx, ty, ta) = dims, tops
    x, y = _matrix(rng, rows, inner, tx), _matrix(rng, inner, cols, ty)
    a = _matrix(rng, inner, inner, ta)
    assert x * y == matmul(x, y)
    f = IntPoly(coeffs)
    assert poly_at_matrix(f, a) == poly_at(f, a)
    power = diag(*[1] * inner)
    for _ in range(k):
        power = matmul(power, a)
    assert poly_at_matrix(X ** k, a) == power


def test_product_takes_int64_only_below_2_62(monkeypatch):
    """n * max|x| * max|y| < 2^62 takes numpy's int64 matmul; equality does not."""
    dtypes = []
    numpy_matmul = np.matmul

    def spy(x, y):
        dtypes.append(x.dtype)
        return numpy_matmul(x, y)

    monkeypatch.setattr(np, "matmul", spy)
    half = 2 ** 30
    for top, int64 in ((half - 1, True), (-half, False), (half, False)):
        x = IntMatrix([[top, 1, 7, -3], [1, 2, 3, 4]])
        y = IntMatrix([[half, -1], [2, half], [-half, 0], [5, 6]])
        dtypes.clear()
        assert x * y == matmul(x, y)
        assert dtypes == ([np.int64] if int64 else [])
    # a zero factor counts as 1, so the other one must fit on its own
    dtypes.clear()
    assert IntMatrix([[0, 0]]) * IntMatrix([[10 ** 20], [1]]) == IntMatrix([[0]])
    assert IntMatrix([[0, 0]]) * IntMatrix([[half], [1]]) == IntMatrix([[0]])
    assert dtypes == [np.int64]


def test_product_exact_past_2_63():
    """Entries of 2^63 and beyond, which int64 would wrap, come out exact."""
    big = 2 ** 31
    x = IntMatrix([[big, big], [big, -big]])
    assert x * x == IntMatrix([[2 ** 63, 0], [0, 2 ** 63]])
    assert IntMatrix([[big, big]]) * IntMatrix([[big], [big]]) == IntMatrix([[2 ** 63]])
    assert x * x * x == matmul(matmul(x, x), x)
    square_plus_one = IntMatrix([[2 ** 63 + 1, 0], [0, 2 ** 63 + 1]])
    assert poly_at_matrix(IntPoly((1, 0, 1)), x) == square_plus_one


def test_checking_constructor_rejects_what_is_not_an_int_matrix():
    for bad in ([[1, True], [0, 1]], [[1, 0.0], [0, 1]], [[1, 2.5]], [[np.int64(1)]],
                [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            IntMatrix(bad)


def test_products_built_unchecked_hold_python_ints():
    """Products skip the constructor's check; their entries are ints all the same."""
    for top in (3, 2 ** 40):  # the int64 path, then the Python one
        a = IntMatrix([[top, -1, 0], [2, 0, top], [1, 1, 1]])
        for m in (a * a, a * a * a, poly_at_matrix(IntPoly((5, 1, 1)), a)):
            assert (m.n_rows, m.n_cols) == (3, 3)
            assert all(type(x) is int for row in m.entries for x in row)
            assert m == IntMatrix(m.entries)
    assert (IntMatrix([[1, 2]]) * IntMatrix([[3], [4]])).entries == ((11,),)


def test_matrix_json():
    m = IntMatrix([[0, 1], [2, 3]])
    assert m.to_json() == {"n": 2, "entries": [[0, 1], [2, 3]]}
    assert IntMatrix.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        IntMatrix.from_json({"n": 3, "entries": [[0, 1], [2, 3]]})
    with pytest.raises(ValueError):
        IntMatrix.from_json({"entries": "nope"})
    with pytest.raises(ValueError, match="integer n required, got True"):
        IntMatrix.from_json({"n": True, "entries": [[5]]})
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
