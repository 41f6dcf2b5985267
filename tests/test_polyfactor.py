import random
import time

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from submodzeta import polyfactor
from submodzeta.linalg import IntPoly, distinct_degree
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


# x^4 + 1 and the Swinnerton-Dyer polynomial S_3, the product of the
# x +- sqrt 2 +- sqrt 3 +- sqrt 5: irreducible, and reducible mod every prime
X4_PLUS_1 = IntPoly((1, 0, 0, 0, 1))
S3 = IntPoly((576, 0, -960, 0, 352, 0, -40, 0, 1))
# irreducible over Z; (x^2 + 1)(x^2 + x + 2) mod 3 is two quadratics
_POOL = [IntPoly(c) for c in ((0, 1), (1, 1), (-2, 1), (1, 0, 1), (2, 1, 1), (-2, 0, 1),
                              (1, 1, 1), (-1, -1, 0, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1))]


def _reference(f):
    """sympy's dup_factor_list of f, as factor_over_z returns factors."""
    constant, parts = dup_factor_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    assert constant == 1
    return sorted(((IntPoly([int(c) for c in reversed(g)]), m) for g, m in parts),
                  key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _zassenhaus_calls(monkeypatch):
    calls = []
    zz = polyfactor.dup_zz_factor_sqf
    monkeypatch.setattr(polyfactor, "dup_zz_factor_sqf",
                        lambda g, K: calls.append(len(g) - 1) or zz(g, K))
    return calls


def test_factor_over_z_matches_dup_factor_list(monkeypatch):
    """x^4 + 1, S_3, (x^2 + 1)(x^2 + x + 2), x^k, and 300 seeded products of
    1-4 factors from a pool of irreducibles, some repeated, up to degree 24."""
    rng = random.Random(39)
    cases = [X4_PLUS_1, S3, _POOL[3] * _POOL[4], IntPoly((0, 1)) ** 5, S3 * X4_PLUS_1 ** 2]
    for _ in range(300):
        f = IntPoly((1,))
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(_POOL)
            if f.degree + 2 * g.degree <= DEFAULT_DEGREE_CAP and rng.random() < 0.3:
                g = g ** 2
            if f.degree + g.degree <= DEFAULT_DEGREE_CAP:
                f = f * g
        if f.degree >= 1:
            cases.append(f)
    calls = _zassenhaus_calls(monkeypatch)
    for f in cases:
        assert factor_over_z(f) == _reference(f), f
    assert calls


def test_inert_parts_skip_zassenhaus_and_the_others_take_it(monkeypatch):
    calls = _zassenhaus_calls(monkeypatch)
    # irreducible mod 3, 7 and 2 respectively
    for f in (IntPoly((1, 0, 1)), IntPoly((-2, 0, 0, 1)), IntPoly((1, 1, 0, 0, 1))):
        assert factor_over_z(f) == [(f, 1)]
    assert calls == []
    # no small prime leaves x^4 + 1 or S_3 irreducible: each first part mod
    # q has a degree below the polynomial's
    for f in (X4_PLUS_1, S3):
        assert all(next(distinct_degree(f.coeffs, q))[0] < f.degree
                   for q in polyfactor._INERT_TRIALS)
        assert factor_over_z(f) == [(f, 1)]
    assert calls == [4, 8]
    # mod 3 the first part of (x^2 + 1)(x^2 + x + 2) is all of it, but of
    # degree d = 2, not 4: two factors, not an inert prime
    f = _POOL[3] * _POOL[4]
    assert next(distinct_degree(f.coeffs, 3)) == (2, [2, 1, 0, 1, 1])
    assert factor_over_z(f) == [(_POOL[3], 1), (_POOL[4], 1)]
    assert calls == [4, 8, 4]


def test_profile_of_a_sparse_high_degree_factor_is_quick():
    """x^1000 - 2 at 1009, its first good prime: 10 places of degree 4, 8 of
    degree 20 and 8 of degree 100.  sympy's distinct-degree factorization
    took 2.7-3.5 s there."""
    start = time.perf_counter()
    prof = splitting_profile(IntPoly([-2] + [0] * 999 + [1]), 1009)
    assert time.perf_counter() - start < 1.5
    assert prof.degrees == (4,) * 10 + (20,) * 8 + (100,) * 8 and not prof.ramified
