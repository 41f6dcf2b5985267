import pytest

from submodzeta.linalg import IntPoly
from submodzeta.polyfactor import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    factor_over_z,
    splitting_profile,
)

X = IntPoly((0, 1))


def test_factor_examples():
    assert factor_over_z(IntPoly((-1, 0, 1))) == [
        (IntPoly((-1, 1)), 1),
        (IntPoly((1, 1)), 1),
    ]
    assert factor_over_z(IntPoly((1, 0, 1))) == [(IntPoly((1, 0, 1)), 1)]
    assert factor_over_z(IntPoly((1, 0, 0, 0, 1))) == [(IntPoly((1, 0, 0, 0, 1)), 1)]


def test_factor_multiplicities_and_order():
    g = IntPoly((-1, 1)) ** 2 * IntPoly((1, 0, 1))
    factors = factor_over_z(g)
    assert factors == [(IntPoly((-1, 1)), 2), (IntPoly((1, 0, 1)), 1)]
    # canonical order: by (degree, coefficients)
    h = IntPoly((1, 0, 1)) * IntPoly((-3, 1))
    assert [f.degree for f, _ in factor_over_z(h)] == [1, 2]


def test_factor_validation():
    with pytest.raises(ValueError):
        factor_over_z(IntPoly((1, 2)))  # not monic
    with pytest.raises(ValueError):
        factor_over_z(IntPoly((7,)))  # constant
    with pytest.raises(DegreeCapError):
        factor_over_z(X ** (DEFAULT_DEGREE_CAP + 1))
    assert factor_over_z(X ** DEFAULT_DEGREE_CAP) == [(X, DEFAULT_DEGREE_CAP)]


def test_factor_reconstructs_input():
    candidates = [
        IntPoly((-2, 1)) * IntPoly((1, 1, 1)) * IntPoly((1, 0, 1)),
        IntPoly((2, -3, 1)) ** 2,
        IntPoly((-2, 0, 1)) * IntPoly((3, 1)) ** 3,
        IntPoly((1, 1, 0, 0, 1)),
    ]
    for f in candidates:
        factors = factor_over_z(f)
        product = IntPoly((1,))
        for g, mult in factors:
            assert g.is_monic
            product = product * g ** mult
            # each factor is itself irreducible
            assert factor_over_z(g) == [(g, 1)]
        assert product == f


def test_splitting_profile_examples():
    f = IntPoly((1, 0, 1))
    p5 = splitting_profile(f, 5)
    assert p5.degrees == (1, 1) and not p5.ramified and p5.num_places == 2
    p3 = splitting_profile(f, 3)
    assert p3.degrees == (2,) and not p3.ramified and p3.num_places == 1
    p2 = splitting_profile(f, 2)
    assert p2.ramified
    with pytest.raises(ValueError):
        splitting_profile(f, 6)


def test_profile_degrees_sum_and_roots():
    # degree sum = deg f at unramified p; degree-1 count = root count by exhaustion
    import sympy

    polys = [
        IntPoly((1, 0, 1)),
        IntPoly((-2, 0, 1)),
        IntPoly((1, 1, 0, 1)),
        IntPoly((-1, -1, 0, 0, 0, 1)),
        IntPoly((1, 0, 0, 0, 1)),
        IntPoly((3, 2, 0, 1, 0, 0, 1)),
    ]
    for f in polys:
        assert factor_over_z(f) == [(f, 1)], f"test wants irreducible inputs: {f}"
        tested = 0
        p = 1
        while tested < 25:
            p = int(sympy.nextprime(p))
            prof = splitting_profile(f, p)
            if prof.ramified:
                continue
            tested += 1
            assert sum(prof.degrees) == f.degree
            values = [sum(c * x ** k for k, c in enumerate(f.coeffs)) for x in range(p)]
            roots = sum(1 for v in values if v % p == 0)
            assert sum(1 for d in prof.degrees if d == 1) == roots


def test_dense_splits():
    # x^4 - 1 is not irreducible, but splitting still reports factor degrees
    # of squarefree reductions; use an irreducible with full split instead
    f = IntPoly((-1, 0, 1))  # x^2 - 1 splits at every odd prime
    prof = splitting_profile(f, 7)
    assert prof.degrees == (1, 1)
