import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodzeta.canonical import EdvContext, ElementaryDivisorVector, edv_context
from submodzeta.linalg import IntPoly
from submodzeta.partitions import Partition
from submodzeta.polyfactor import splitting_profile
from submodzeta.zetacore import (
    BinomialProduct,
    DirichletCoefficients,
    FunctionalEquationData,
    RamifiedPrimeError,
    abscissa,
    bad_prime_reasons,
    dirichlet_coefficients,
    functional_equation_data,
    generic_local_factor,
    global_formula,
    good_primes,
    has_simple_pole_at_zero,
    is_good_prime,
    powerseries_ring_coeffs,
    verify_functional_equation,
    w_lambda,
    zpxn_zeta,
)

from linalg_helpers import (
    XYRational,
    abscissa_from_factors,
    exceptional_factor_2x2,
    multiply,
    n_of,
    partitions_of,
    profiles_at,
)

X = IntPoly((0, 1))
X_MINUS_1 = IntPoly((-1, 1))
X2_PLUS_1 = IntPoly((1, 0, 1))
ONE = BinomialProduct.from_factors(())


def edv(*pairs):
    return ElementaryDivisorVector.from_pairs(
        [(f, Partition(parts)) for f, parts in pairs]
    )


def ctx(*pairs, den=1):
    return EdvContext(edv(*pairs), den)


def flagged(expr):
    """The primes a global formula flags as bad."""
    return {p for p, _ in expr.bad_primes}


def formula(*pairs):
    """The global formula with the bad primes of the EDV's context."""
    c = ctx(*pairs)
    return global_formula(c.edv, bad_prime_reasons(c))


# ---------------------------------------------------------------------------
# BinomialProduct


def test_binomial_product_canonicalization():
    p = BinomialProduct.from_factors([(1, 2, -1), (0, 1, -1), (1, 2, -1)])
    assert p.factors == ((0, 1, -1), (1, 2, -2))
    assert BinomialProduct.from_factors([(0, 1, 1), (0, 1, -1)]) == ONE
    with pytest.raises(ValueError):
        BinomialProduct(((0, 1, -1), (0, 1, -1)))  # unmerged duplicates
    with pytest.raises(ValueError):
        BinomialProduct(((1, 2, -1), (0, 1, -1)))  # unsorted
    with pytest.raises(ValueError):
        BinomialProduct(((0, 0, -1),))  # b must be positive
    with pytest.raises(ValueError):
        BinomialProduct(((-1, 1, -1),))  # a must be non-negative
    with pytest.raises(ValueError):
        BinomialProduct(((0, 1, 0),))  # e must be non-zero


def test_binomial_product_algebra():
    p = BinomialProduct.from_factors([(0, 1, -1)])
    q = BinomialProduct.from_factors([(1, 2, -1)])
    assert multiply(p, q).factors == ((0, 1, -1), (1, 2, -1))
    assert multiply(p, BinomialProduct.from_factors([(0, 1, 1)])) == ONE
    assert multiply(p, p, p).factors == ((0, 1, -3),)
    assert ONE.text() == "1"
    assert p.text() == "(1 - t^1)^-1"
    assert q.text() == "(1 - q^1 t^2)^-1"
    assert q.to_json() == [{"a": 1, "b": 2, "e": -1}]


# ---------------------------------------------------------------------------
# w_lambda


def test_w_lambda_examples():
    assert w_lambda(Partition([4])).factors == tuple(
        (j - 1, 1, -1) for j in range(1, 5)
    )
    assert w_lambda(Partition([1] * 4)).factors == tuple(
        (j - 1, j, -1) for j in range(1, 5)
    )
    assert w_lambda(Partition([2, 1])).factors == ((0, 1, -1), (1, 1, -1), (2, 2, -1))
    with pytest.raises(ValueError):
        w_lambda(Partition([]))


def test_w_lambda_injective_small():
    for n in range(1, 11):
        seen = {}
        for lam in partitions_of(n):
            w = w_lambda(lam)
            assert w not in seen, (lam, seen[w])
            seen[w] = lam


def test_w_identity_coincidence():
    left = multiply(w_lambda(Partition([2, 2, 1])), w_lambda(Partition([3, 1])))
    right = multiply(w_lambda(Partition([2, 2])), w_lambda(Partition([3, 1, 1])))
    assert left == right


# ---------------------------------------------------------------------------
# good primes


def test_good_prime_heuristic():
    e = ctx((X, (1, 1)))
    assert not is_good_prime(2, e)  # p <= n
    assert is_good_prime(3, e)
    assert not is_good_prime(3, ctx((X, (1, 1)), den=6))

    # resultant channel: eigenvalues 1 and 4 collide mod 3
    e2 = ctx((X_MINUS_1, (1,)), (IntPoly((-4, 1)), (1,)))
    assert not is_good_prime(3, e2)
    reasons = bad_prime_reasons(e2)
    assert 2 in reasons and 3 in reasons
    assert any("resultant" in r for r in reasons[3])

    # ramification channel: x^2+1 mod 2
    e3 = ctx((X2_PLUS_1, (1,)))
    assert not is_good_prime(2, e3)
    assert any("squarefree" in r for r in bad_prime_reasons(e3)[2])

    gen = good_primes(e3)
    assert [next(gen) for _ in range(4)] == [3, 5, 7, 11]


def test_bad_prime_reasons_lists_only_primes_for_negative_resultants():
    # Res(x^2 - 2, 2x) = -8
    e = ctx((IntPoly((-2, 0, 1)), (1,)))
    assert bad_prime_reasons(e) == {2: ("p <= n = 2", "x^2 - 2 not squarefree mod p")}
    # Res(x - 4, x - 1) = 3, Res(x - 1, x^3 - 3) = -2, Res(x - 4, x^3 - 3) = 61
    e2 = ctx((X_MINUS_1, (1,)), (IntPoly((-4, 1)), (1,)), (IntPoly((-3, 0, 0, 1)), (1,)))
    reasons = bad_prime_reasons(e2)
    assert list(reasons) == [2, 3, 5, 61]
    assert reasons[3] == ("p <= n = 5", "x^3 - 3 not squarefree mod p",
                          "divides resultant of x - 4 and x - 1")


# Monic irreducibles with discriminant-like integers and resultants of both
# signs: Res(x^2 - 2, 2x) = -8, Res(x - c, x - d) = d - c.
POOL = [IntPoly((-c, 1)) for c in range(-4, 5)] + [
    IntPoly((-2, 0, 1)), X2_PLUS_1, IntPoly((1, 1, 1)), IntPoly((-3, 0, 1)),
    IntPoly((-2, 0, 0, 1)), IntPoly((-1, -1, 0, 1)),
]
PRIMES_BELOW_300 = [p for p in range(2, 300) if all(p % q for q in range(2, p))]


@st.composite
def contexts(draw):
    polys = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
    pairs = [(f, sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)),
                        reverse=True)) for f in polys]
    return ctx(*pairs, den=draw(st.sampled_from([1, 6, 35])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(contexts())
def test_is_good_prime_agrees_with_bad_prime_reasons(c):
    bad = bad_prime_reasons(c)
    assert [p for p in PRIMES_BELOW_300 if not is_good_prime(p, c)] == [
        p for p in PRIMES_BELOW_300 if p in bad
    ]


# ---------------------------------------------------------------------------
# local factors


def test_generic_local_factor_split_vs_inert():
    e = edv((X2_PLUS_1, (1,)))
    assert generic_local_factor(e, profiles_at(e, 5)).factors == ((0, 1, -2),)
    assert generic_local_factor(e, profiles_at(e, 3)).factors == ((0, 2, -1),)
    with pytest.raises(RamifiedPrimeError):
        generic_local_factor(e, profiles_at(e, 2))


def test_generic_local_factor_is_dual_w():
    for parts in ([3], [2, 1], [1, 1, 1], [4, 2]):
        lam = Partition(parts)
        e = edv((X, parts))
        for p in itertools.islice(good_primes(EdvContext(e, 1)), 3):
            assert generic_local_factor(e, profiles_at(e, p)) == w_lambda(lam.dual())


def test_local_euler_factor_guards():
    """The local Euler factor is the generic one at the primes is_good_prime admits."""
    e = ctx((X, (2,)))
    assert not is_good_prime(2, e)  # p <= n
    assert is_good_prime(3, e)
    assert generic_local_factor(e.edv, profiles_at(e.edv, 3)) == w_lambda(Partition([1, 1]))
    assert not is_good_prime(3, ctx((X, (2,)), den=3))


def test_local_factor_inert_scaling():
    # one degree-2 place folds d into both exponents
    e = edv((X2_PLUS_1, (2,)))
    f = generic_local_factor(e, profiles_at(e, 3))
    # lam=(2): mu=(1,1): cells j=1,2 -> (d(j-1), d*ind) = (0,2), (2,4)
    assert f.factors == ((0, 2, -1), (2, 4, -1))


# ---------------------------------------------------------------------------
# global formula


def test_global_formula_texts():
    assert formula((X, (1, 1))).text() == "zeta(s)*zeta(s-1)"
    assert formula((X, (2, 1))).text() == "zeta(s)*zeta(s-1)*zeta(2s-2)"
    assert formula((X2_PLUS_1, (1,))).text() == "zeta_[x^2 + 1](s)"
    assert formula((X, (3,))).text() == "zeta(s)*zeta(2s-1)*zeta(3s-2)"


def test_global_formula_latex_and_json():
    expr = formula((X2_PLUS_1, (1,)), (X, (2,)))
    latex = expr.latex()
    assert r"\zeta" in latex and "x^{2} + 1" in latex
    data = expr.to_json()
    assert len(data["dedekind_factors"]) == 3
    assert all(isinstance(p, str) for p in data["bad_primes"])


def test_global_formula_bad_primes_flow_through():
    expr = formula((X, (1, 1)))
    assert flagged(expr) == {2}
    custom = global_formula(edv((X, (1, 1))), bad_primes={5: ("because",)})
    assert flagged(custom) == {5}
    # the kernel denominator is a source of bad primes too, so the caller
    # must pass the context's reasons: there is no default that drops it
    with_den = ctx((X, (1, 1)), den=35)
    expr = global_formula(with_den.edv, bad_prime_reasons(with_den))
    assert flagged(expr) == {2, 5, 7}
    with pytest.raises(TypeError):
        global_formula(with_den.edv)


def test_global_formula_scales_are_dual_indices():
    lam = Partition([3, 1])
    expr = formula((X, (3, 1)))
    mu = lam.dual()
    expected = tuple((X, mu.ind(j), j - 1) for j in range(1, 5))
    assert expr.dedekind_factors == expected


# ---------------------------------------------------------------------------
# abscissa


def test_abscissa_examples():
    assert abscissa(edv((X, (1, 1, 1, 1)))) == (4, 1)
    assert abscissa(edv((X, (5,)))) == (1, 5)
    assert abscissa(edv((X, (2, 1)), (X_MINUS_1, (3,)))) == (2, 1)
    # two entries attaining the max: last parts add
    assert abscissa(edv((X, (2, 1)), (X_MINUS_1, (3, 2)))) == (2, 3)


def test_abscissa_from_factors():
    assert abscissa_from_factors(w_lambda(Partition([6]))) == 6
    assert abscissa_from_factors(w_lambda(Partition([1] * 6))) == 1
    assert abscissa_from_factors(w_lambda(Partition([2, 1]))) == 2
    assert abscissa_from_factors(
        BinomialProduct.from_factors([(1, 3, -1)])
    ) == Fraction(2, 3)
    with pytest.raises(ValueError):
        abscissa_from_factors(ONE)
    with pytest.raises(ValueError):
        abscissa_from_factors(BinomialProduct.from_factors([(0, 1, 1)]))


def test_abscissa_matches_local_factor_poles():
    for n in range(1, 9):
        for lam in partitions_of(n):
            e = edv((X, lam.parts))
            alpha, _ = abscissa(e)
            p = next(good_primes(EdvContext(e, 1)))
            assert abscissa_from_factors(generic_local_factor(e, profiles_at(e, p))) == alpha


# ---------------------------------------------------------------------------
# functional equation


def test_fe_data_examples():
    e = edv((X, (2, 1)))
    data = functional_equation_data(e, [splitting_profile(X, 5)])
    assert (data.sign_exponent, data.q_exponent, data.s_exponent) == (3, 3, 4)

    e1 = edv((X, (1,)))
    d1 = functional_equation_data(e1, [splitting_profile(X, 2)])
    assert (d1.sign_exponent, d1.q_exponent, d1.s_exponent) == (1, 0, 1)


def test_fe_data_validation():
    e = edv((X2_PLUS_1, (1,)))
    with pytest.raises(ValueError):
        functional_equation_data(e, [])
    with pytest.raises(ValueError):
        functional_equation_data(e, [splitting_profile(X2_PLUS_1, 2)])  # ramified
    two = edv((X, (1,)), (X_MINUS_1, (1,)))
    with pytest.raises(ValueError):
        functional_equation_data(
            two, [splitting_profile(X, 3), splitting_profile(X_MINUS_1, 5)]
        )


def test_fe_sign_depends_on_splitting():
    e = edv((X2_PLUS_1, (1,)))
    split = functional_equation_data(e, [splitting_profile(X2_PLUS_1, 5)])
    inert = functional_equation_data(e, [splitting_profile(X2_PLUS_1, 3)])
    assert split.sign_exponent == 2 and inert.sign_exponent == 1
    assert split.q_exponent == inert.q_exponent == 0
    assert split.s_exponent == inert.s_exponent == 2


def test_verify_functional_equation():
    for n in range(1, 9):
        for lam in partitions_of(n):
            e = edv((X, lam.parts))
            p = next(good_primes(EdvContext(e, 1)))
            profiles = [splitting_profile(X, p)]
            data = functional_equation_data(e, profiles)
            assert verify_functional_equation(generic_local_factor(e, profiles), data)
    # hand-broken: product (1-Y)^-1 (1-XY^2)^-1 with wrong s-exponent
    broken = FunctionalEquationData(2, 1, 2)
    f = BinomialProduct.from_factors([(0, 1, -1), (1, 2, -1)])
    assert not verify_functional_equation(f, broken)
    assert verify_functional_equation(f, FunctionalEquationData(2, 1, 3))
    # positive exponents never verify
    assert not verify_functional_equation(
        BinomialProduct.from_factors([(0, 1, 1)]), FunctionalEquationData(-1, 0, -1)
    )


def test_fe_data_json():
    d = FunctionalEquationData(5, 10, 7)
    assert d.to_json() == {"sign_exponent": 5, "q_exponent": 10, "s_exponent": 7}


# ---------------------------------------------------------------------------
# pole at zero


def test_has_simple_pole_at_zero():
    assert has_simple_pole_at_zero(edv((IntPoly((-5, 1)), (3, 2))))
    assert not has_simple_pole_at_zero(edv((X2_PLUS_1, (1,))))
    assert not has_simple_pole_at_zero(edv((X, (1,)), (X_MINUS_1, (1,))))


# ---------------------------------------------------------------------------
# closed forms


def test_zpxn_zeta():
    assert zpxn_zeta(1).factors == ((0, 1, -1),)
    assert zpxn_zeta(2).factors == ((0, 1, -1), (1, 2, -1))
    assert zpxn_zeta(3).factors == ((0, 1, -1), (1, 2, -1), (2, 3, -1))
    for n in range(1, 11):
        assert zpxn_zeta(n) == w_lambda(Partition([1] * n))
    with pytest.raises(ValueError):
        zpxn_zeta(0)


def test_powerseries_ring_coeffs_small():
    coeffs = powerseries_ring_coeffs(16)
    assert coeffs[0] == 1
    assert coeffs[1] == 1
    assert coeffs[3] == 3
    assert len(coeffs) == 16
    assert powerseries_ring_coeffs(1) == [1]
    with pytest.raises(ValueError):
        powerseries_ring_coeffs(0)


def test_powerseries_partial_sums_subquadratic():
    coeffs = powerseries_ring_coeffs(10_000)
    partial = 0
    for n, a in enumerate(coeffs, start=1):
        assert a >= 0
        partial += a
        # partial <= n^(3/2), kept in exact integer arithmetic
        assert partial * partial <= n ** 3


# ---------------------------------------------------------------------------
# coefficient expansion


def test_dirichlet_coefficients_examples():
    assert dirichlet_coefficients(w_lambda(Partition([1, 1])), 2, 2).values == (1, 1, 3)
    assert dirichlet_coefficients(w_lambda(Partition([2])), 3, 2).values == (1, 4, 13)
    assert dirichlet_coefficients(ONE, 7, 3).values == (1, 0, 0, 0)


def test_dirichlet_coefficients_match_convolution():
    f = w_lambda(Partition([2, 1]))
    p, top = 3, 8
    combined = dirichlet_coefficients(f, p, top).values
    pieces = [
        dirichlet_coefficients(BinomialProduct.from_factors([t]), p, top).values
        for t in f.factors
    ]
    conv = [1] + [0] * top
    for piece in pieces:
        conv = [
            sum(conv[i] * piece[k - i] for i in range(k + 1)) for k in range(top + 1)
        ]
    assert tuple(conv) == combined


def test_dirichlet_coefficients_positive_exponents():
    # (1 - Y) * (1 - Y)^-1 = 1
    f = BinomialProduct.from_factors([(0, 1, 1)])
    g = BinomialProduct.from_factors([(0, 1, -1)])
    assert multiply(f, g) == ONE
    vals = dirichlet_coefficients(f, 5, 3).values
    assert vals == (1, -1, 0, 0)


def test_dirichlet_coefficients_validation():
    with pytest.raises(ValueError):
        dirichlet_coefficients(ONE, 2, -1)
    with pytest.raises(ValueError):
        DirichletCoefficients(2, ())
    with pytest.raises(ValueError):
        DirichletCoefficients(2, (3, 1))
    dc = DirichletCoefficients(5, (1, 2, 3))
    assert (dc.prime, dc.values) == (5, (1, 2, 3))


# ---------------------------------------------------------------------------
# the hard-coded 2x2 exceptional factor


def test_exceptional_factor_degenerates_to_one():
    assert exceptional_factor_2x2(0).is_one
    with pytest.raises(ValueError):
        exceptional_factor_2x2(-1)


def test_exceptional_factor_structure():
    x = exceptional_factor_2x2(1)
    assert x.numerator == ((0, 0, 1), (1, 2, -1), (2, 2, -1), (2, 3, 1))
    assert x.binomials.factors == ((1, 1, -1),)


def test_exceptional_factor_series_closed_form():
    # full local factor: exceptional * zeta_p(s) zeta_p(2s-1); coefficient of
    # Y^m must be sum over i+j=m, j <= i+e of p^j
    zeta_pair = BinomialProduct.from_factors([(0, 1, -1), (1, 2, -1)])
    for p in (2, 3, 5):
        for e in range(4):
            full = exceptional_factor_2x2(e) * zeta_pair
            got = full.series(p, 6)
            want = [
                sum(p ** j for j in range(0, m + 1) if j <= (m - j) + e)
                for m in range(7)
            ]
            assert got == want, (p, e)


def test_xyrational_api():
    one = XYRational.one()
    assert one.is_one
    assert one.series(7, 3) == [1, 0, 0, 0]
    scaled = one * BinomialProduct.from_factors([(0, 1, -1)])
    assert scaled.series(7, 3) == [1, 1, 1, 1]
    assert scaled.dirichlet_coefficients(7, 3).values == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# pipeline smoke: matrix -> edv -> factor == oracle-verified elsewhere


def test_edv_pipeline_factors():
    c = edv_context(n_of(Partition([2, 1])))
    assert c.edv == edv((X, (2, 1)))
    assert is_good_prime(5, c)
    assert generic_local_factor(c.edv, profiles_at(c.edv, 5)) == w_lambda(Partition([2, 1]))
