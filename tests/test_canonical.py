import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from submodzeta import canonical
from submodzeta.canonical import EdvContext, ElementaryDivisorVector, edv_context
from submodzeta.linalg import IntMatrix, IntPoly, minpoly, poly_at_matrix
from submodzeta.partitions import Partition
from submodzeta.polyfactor import factor_over_z

from linalg_helpers import (
    a_of,
    block_diag,
    companion,
    diag,
    hnf,
    int_inverse,
    n_of,
    partitions_of,
    random_unimodular,
)

X = IntPoly((0, 1))


def types(a):
    """The type partition of each irreducible f in the EDV of a."""
    return dict(edv_context(a).edv.entries)


def test_nilpotent_type_examples():
    """A nilpotent matrix has x alone in its EDV; any other matrix has more."""
    assert types(diag(0, 0, 0)) == {X: Partition([1, 1, 1])}
    assert types(n_of(Partition([3, 1]))) == {X: Partition([3, 1])}
    assert types(a_of(Partition([2, 1]))) == {X: Partition([2, 1])}
    assert X not in types(diag(1, 1))
    # not nilpotent, but with a nonzero kernel: x is one factor of several
    x_minus_1, x_minus_3 = IntPoly((-1, 1)), IntPoly((-3, 1))
    shifted = block_diag(n_of(Partition([2])), companion(x_minus_3))
    assert types(IntMatrix([[0, 0], [0, 1]])) == {X: Partition([1]), x_minus_1: Partition([1])}
    assert types(shifted) == {X: Partition([2]), x_minus_3: Partition([1])}


def test_nilpotent_type_round_trip():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert types(n_of(lam)) == {X: lam}
            assert types(a_of(lam)) == {X: lam.dual()}


def test_primary_type_examples():
    x_minus_1 = IntPoly((-1, 1))
    assert types(n_of(Partition([2, 1]))) == {X: Partition([2, 1])}
    x2p1 = IntPoly((1, 0, 1))
    c = companion(x2p1)
    assert types(c) == {x2p1: Partition([1])}
    assert types(block_diag(c, c)) == {x2p1: Partition([1, 1])}
    # not nilpotent: the kernels are those of f(a) = a - I
    assert types(IntMatrix([[1, 1], [0, 1]])) == {x_minus_1: Partition([2])}
    diag_011 = IntMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert types(diag_011) == {X: Partition([1]), x_minus_1: Partition([1, 1])}
    with pytest.raises(ValueError, match="square"):
        edv_context(IntMatrix([[1, 2]]))


_COPRIME_FACTORS = [X, IntPoly((-1, 1)), IntPoly((2, 1)), IntPoly((1, 0, 1)),
                    IntPoly((-2, 0, 1)), IntPoly((1, 1, 1)), IntPoly((-1, -1, 0, 1)),
                    IntPoly((-2, 0, 0, 1))]


def test_primary_type_on_conjugated_block_sums():
    """On a sum of primary blocks, the type of each f is that of its block alone."""
    rng = random.Random(29)
    for _ in range(30):
        fs = rng.sample(_COPRIME_FACTORS, rng.randint(2, 3))
        blocks = {}
        for f in fs:
            # parts from {1, 2}, so repeated parts are common
            lam = Partition([rng.randint(1, 2) for _ in range(rng.randint(1, 3 - f.degree // 2))])
            blocks[f] = (lam, block_diag(*(companion(f ** k) for k in lam.parts)))
        a = block_diag(*(block for _, block in blocks.values()))
        u = random_unimodular(rng, a.n_rows)
        conj = u * a * int_inverse(u)
        for f, (lam, block) in blocks.items():
            assert types(block) == {f: lam}
        assert types(conj) == {f: lam for f, (lam, _) in blocks.items()}


def test_single_factor_minpoly_evaluates_f_once(monkeypatch):
    """With one irreducible factor the block is a itself: f(a) is not formed to split it."""
    calls = []

    def counting(f, a):
        calls.append(f)
        return poly_at_matrix(f, a)

    monkeypatch.setattr(canonical, "poly_at_matrix", counting)
    rng = random.Random(1)
    u = random_unimodular(rng, 6)
    cases = [
        (companion(IntPoly((-1, -1, 0, 1)) ** 2), IntPoly((-1, -1, 0, 1)), Partition([2])),
        (u * block_diag(*[companion(IntPoly((1, 0, 1)))] * 3) * int_inverse(u),
         IntPoly((1, 0, 1)), Partition([1, 1, 1])),
        (diag(1, 1, 1, 1), IntPoly((-1, 1)), Partition([1, 1, 1, 1])),
    ]
    for a, f, lam in cases:
        calls.clear()
        assert edv_context(a) == EdvContext(ElementaryDivisorVector(((f, lam),)), 1)
        assert len(calls) == 1


def test_edv_context_rejects_a_wrong_exponent(monkeypatch):
    """Each of f(a), ..., f(a)^m must grow the kernel, by a multiple of deg f,
    and the kernels at m must fill Q^n; a wrong factor or exponent is caught."""
    a = n_of(Partition([2, 1]))
    monkeypatch.setattr(canonical, "factor_over_z", lambda *_: [(X, 3)])
    with pytest.raises(RuntimeError, match="stalled"):
        edv_context(a)
    monkeypatch.setattr(canonical, "factor_over_z", lambda *_: [(X, 1)])
    with pytest.raises(RuntimeError, match="sum to n"):
        edv_context(a)
    monkeypatch.setattr(canonical, "factor_over_z", lambda *_: [(IntPoly((-1, 1)), 1)])
    with pytest.raises(ValueError, match="invertible"):
        edv_context(diag(0, 0))
    # x^2 - 1 is not irreducible: its kernel on diag(1, 1, -1) has odd dimension
    monkeypatch.setattr(canonical, "factor_over_z", lambda *_: [(IntPoly((-1, 0, 1)), 1)])
    with pytest.raises(ValueError, match="divisible"):
        edv_context(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))


def test_edv_examples():
    assert edv_context(diag(0, 0)).edv.entries == (
        (X, Partition([1, 1])),
    )
    assert edv_context(companion(IntPoly((1, 0, 1)))).edv.entries == (
        (IntPoly((1, 0, 1)), Partition([1])),
    )
    m = block_diag(n_of(Partition([2, 1])), IntMatrix([[1]]))
    assert edv_context(m).edv.entries == (
        (IntPoly((-1, 1)), Partition([1])),
        (X, Partition([2, 1])),
    )


def test_edv_canonical_order():
    m = block_diag(companion(IntPoly((1, 0, 1))), IntMatrix([[5]]))
    edv = edv_context(m).edv
    keys = [(f.degree, f.coeffs) for f, _ in edv.entries]
    assert keys == sorted(keys)


def test_edv_size_identity_split_random():
    rng = random.Random(23)
    lin = [IntPoly((-a, 1)) for a in (-2, -1, 0, 1, 2, 3)]
    for _ in range(20):
        n = rng.randint(1, 5)
        blocks = []
        total = 0
        while total < n:
            f = rng.choice(lin)
            k = rng.randint(1, n - total)
            blocks.append(companion(f ** k))
            total += k
        m = block_diag(*blocks)
        edv = edv_context(m).edv
        assert sum(f.degree * lam.size for f, lam in edv.entries) == m.n_rows
        assert edv.n == m.n_rows


def test_similar_matrices_same_edv():
    rng = random.Random(5)
    targets = [
        n_of(Partition([2, 1])),
        block_diag(companion(IntPoly((1, 0, 1))), IntMatrix([[2]])),
        IntMatrix([[0, 0], [0, 3]]),
    ]
    for m in targets:
        n = m.n_rows
        edv = edv_context(m).edv
        for _ in range(5):
            p = random_unimodular(rng, n)
            pinv = int_inverse(p)
            conj = p * m * pinv
            assert edv_context(conj).edv == edv


def test_edv_context_denominators():
    ctx = edv_context(n_of(Partition([2, 1])))
    assert ctx.denominator_lcm >= 1
    assert ctx.edv == ElementaryDivisorVector(((X, Partition([2, 1])),))


# Found by a seeded search over small matrices with entries in {0, +-1, 2, 3};
# edv and denominator_lcm as computed before the integer pipeline.
PINNED_DENOMINATORS = [
    ([[3, 2], [0, 0]],
     [{"poly": [-3, 1], "partition": [1]}, {"poly": [0, 1], "partition": [1]}], 2),
    ([[0, 1, 2], [0, 0, 0], [2, 0, 3]],
     [{"poly": [-4, 1], "partition": [1]}, {"poly": [0, 1], "partition": [1]},
      {"poly": [1, 1], "partition": [1]}], 8),
    ([[-1, 3, 0], [3, 3, 0], [-1, 3, 1]],
     [{"poly": [-1, 1], "partition": [1]}, {"poly": [-12, -2, 1], "partition": [1]}], 13),
    ([[0, 0, 0, 0, 0], [-1, 1, 0, 2, 0], [0, 0, 0, 0, 0], [2, 0, 1, 3, 0],
      [-1, 0, 2, -1, -1]],
     [{"poly": [-3, 1], "partition": [1]}, {"poly": [-1, 1], "partition": [1]},
      {"poly": [0, 1], "partition": [1, 1]}, {"poly": [1, 1], "partition": [1]}], 12),
    ([[2, 0, 1, 3, 0], [0, 2, 0, 0, 0], [0, -1, 1, 0, -1], [3, 3, -1, 3, 0],
      [0, 3, 0, 0, 1]],
     [{"poly": [-2, 1], "partition": [1]}, {"poly": [-1, 1], "partition": [2]},
      {"poly": [-3, -5, 1], "partition": [1]}], 198),
    ([[0, 2, -1, 2, 2], [0, 0, 0, 0, 3], [1, 3, 0, 0, 0], [3, 0, 2, 0, -1],
      [0, 3, 0, 0, 0]],
     [{"poly": [-3, 1], "partition": [1]}, {"poly": [1, 1], "partition": [1]},
      {"poly": [3, 1], "partition": [1]}, {"poly": [-4, -1, 1], "partition": [1]}], 3055),
    ([[0, -1, 0, 0, 1, 0], [0, 3, 3, 1, 1, 0], [1, 0, 2, 0, 3, 0], [0, 0, 0, -1, 1, 0],
      [0, 0, 0, 0, 0, 0], [0, 1, 3, 2, 0, 0]],
     [{"poly": [0, 1], "partition": [2]}, {"poly": [1, 1], "partition": [1]},
      {"poly": [3, 6, -5, 1], "partition": [1]}], 6),
]


@pytest.mark.parametrize("rows,edv,den", PINNED_DENOMINATORS)
def test_edv_context_denominators_pinned(rows, edv, den):
    ctx = edv_context(IntMatrix(rows))
    assert ctx.edv.to_json() == edv
    assert ctx.denominator_lcm == den


def test_primary_type_of_blocks_with_denominators(monkeypatch):
    """Each type is read off the kernels of f(a), ..., f(a)^m on the whole
    matrix, the last by kernel_basis, where the bases need denominators."""
    calls = []

    def recording(name):
        original = getattr(canonical, name)
        return lambda m: calls.append((name, m)) or original(m)

    for name in ("kernel_dim", "kernel_basis"):
        monkeypatch.setattr(canonical, name, recording(name))
    for rows, edv, _ in PINNED_DENOMINATORS:
        a = IntMatrix(rows)
        calls.clear()
        assert edv_context(a).edv.to_json() == edv
        expected = []
        for f, m in factor_over_z(minpoly(a)):
            expected += [("kernel_dim", poly_at_matrix(f ** j, a)) for j in range(1, m)]
            expected.append(("kernel_basis", poly_at_matrix(f ** m, a)))
        assert calls == expected


_BLOCK_POLYS = [X, IntPoly((-1, 1)), IntPoly((2, 1)), IntPoly((1, 0, 1)),
                IntPoly((-2, 0, 1)), IntPoly((-1, -1, 0, 1))]


@st.composite
def _matrix_and_unimodular(draw):
    """A dense or block-companion matrix of size <= 8, and shears building U and U^-1."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        a = IntMatrix([[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)])
    else:
        blocks = []
        size = 0
        while not blocks or (size < 8 and draw(st.booleans())):
            f = draw(st.sampled_from(_BLOCK_POLYS))
            k = draw(st.integers(1, 3))
            if size + f.degree * k > 8:
                break
            blocks.append(companion(f ** k))
            size += f.degree * k
        if not blocks:
            blocks = [companion(X)]
        a = block_diag(*blocks)
    n = a.n_rows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in inv:
                row[j] -= c * row[i]
    return a, IntMatrix(u), IntMatrix(inv)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrix_and_unimodular())
def test_edv_invariant_under_unimodular_conjugation(case):
    a, u, inv = case
    assert u * inv == diag(*[1] * a.n_rows)
    assert edv_context(u * a * inv).edv == edv_context(a).edv


@st.composite
def _rationally_similar(draw):
    """A conjugated block sum A of size <= 6 and S*A*S^-1, with S the HNF basis
    of the sublattice Z^n g(A) + pZ^n for a factor g of the minimal polynomial.

    That sublattice is A-invariant, so S*A*S^-1 is integral, and it is proper,
    as g(A) is singular, so |det S| > 1: S is not unimodular.
    """
    blocks = []
    size = 0
    while not blocks or (size < 6 and draw(st.booleans())):
        f = draw(st.sampled_from(_BLOCK_POLYS))
        k = draw(st.integers(1, 3))
        if size + f.degree * k > 6:
            break
        blocks.append((f, k))
        size += f.degree * k
    if not blocks:
        blocks = [(X, 1)]
    a = block_diag(*(companion(f ** k) for f, k in blocks))
    u = random_unimodular(random.Random(draw(st.integers(0, 2 ** 32))), a.n_rows)
    a = u * a * int_inverse(u)
    g = draw(st.sampled_from([f for f, _ in blocks]))
    p = draw(st.sampled_from([2, 3, 5]))
    n = a.n_rows
    s = hnf(IntMatrix(list(poly_at_matrix(g, a).entries)
                      + [[p * (i == j) for j in range(n)] for i in range(n)]))
    return a, s


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_rationally_similar())
def test_edv_invariant_under_rational_similarity(case):
    a, s = case
    s_q = sympy.Matrix(s.entries)
    assert abs(s_q.det()) > 1
    conj = s_q * sympy.Matrix(a.entries) * s_q.inv()
    assert all(x.is_integer for x in conj)
    conj = IntMatrix([[int(x) for x in row] for row in conj.tolist()])
    assert edv_context(conj).edv == edv_context(a).edv


def test_edv_json_round_trip():
    edv = edv_context(block_diag(n_of(Partition([2])), IntMatrix([[1]]))).edv
    data = edv.to_json()
    assert data == [
        {"poly": [-1, 1], "partition": [1]},
        {"poly": [0, 1], "partition": [2]},
    ]
    assert ElementaryDivisorVector.from_json(data) == edv


def test_edv_validation():
    with pytest.raises(ValueError):
        ElementaryDivisorVector(((X, Partition([1])), (X, Partition([2]))))
    with pytest.raises(ValueError):
        ElementaryDivisorVector(((IntPoly((1, 2)), Partition([1])),))
    with pytest.raises(ValueError):
        ElementaryDivisorVector(((X, Partition([])),))
    # from_pairs sorts into canonical order
    edv = ElementaryDivisorVector.from_pairs(
        [(X, Partition([2])), (IntPoly((-1, 1)), Partition([1]))]
    )
    assert [str(f) for f, _ in edv.entries] == ["x - 1", "x"]


def test_edv_degree_cap_propagates():
    from submodzeta.polyfactor import DegreeCapError

    big = companion(X ** 30)
    with pytest.raises(DegreeCapError):
        edv_context(big)
    edv = edv_context(big, degree_cap=40).edv
    assert edv.entries == ((X, Partition([30])),)
