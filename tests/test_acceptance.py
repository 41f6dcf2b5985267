"""End-to-end acceptance checks: every identity the library advertises,
cross-verified against the brute-force sublattice counter where feasible.
All comparisons here are exact; there are no tolerances.
"""

import itertools
import json
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from submodzeta.canonical import EdvContext, ElementaryDivisorVector, edv_context
from submodzeta.cli import main
from submodzeta.linalg import IntMatrix, IntPoly, minpoly
from submodzeta.oracle import count_invariant_sublattices
from submodzeta.partitions import Partition
from submodzeta.polyfactor import factor_over_z, splitting_profile
from submodzeta.zetacore import (
    BinomialProduct,
    abscissa,
    dirichlet_coefficients,
    functional_equation_data,
    generic_local_factor,
    good_primes,
    powerseries_ring_coeffs,
    verify_functional_equation,
    w_lambda,
    zpxn_zeta,
)

from linalg_helpers import (
    abscissa_from_factors,
    companion,
    exceptional_factor_2x2,
    multiply,
    n_of,
    partitions_of,
    profiles_at,
)

X = IntPoly((0, 1))


def _edv(*pairs):
    return ElementaryDivisorVector.from_pairs(
        [(f, Partition(parts)) for f, parts in pairs]
    )


def test_truncated_polynomial_quotient_closed_form():
    """The local factor of Z_p[X]/(X^n) acting on itself is the staircase
    product; the n = 3 coefficients match brute force at several primes."""
    start = time.monotonic()
    for n in range(1, 11):
        want = BinomialProduct.from_factors(
            [(j - 1, j, -1) for j in range(1, n + 1)]
        )
        assert zpxn_zeta(n) == want
    a = companion(X ** 3)
    f = zpxn_zeta(3)
    for p in (2, 3, 5):
        expected = dirichlet_coefficients(f, p, 5)
        counted = count_invariant_sublattices(a, p, 5)
        assert counted == expected, p
    assert time.monotonic() - start < 10.0


def test_zero_matrix_gives_shifted_zeta_product(capsys):
    for n in range(1, 7):
        zeros = json.dumps([[0] * n for _ in range(n)])
        assert main(["analyze", zeros, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        shifts = ["zeta(s)"] + [f"zeta(s-{k})" for k in range(1, n)]
        assert doc["global_formula"]["text"] == "*".join(shifts)
        assert doc["alpha"] == n
        assert doc["beta"] == 1
    # the same coefficients come out of brute force
    for n in range(1, 4):
        a = IntMatrix(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
        e = edv_context(a).edv
        want = dirichlet_coefficients(generic_local_factor(e, profiles_at(e, 2)), 2, 4)
        assert count_invariant_sublattices(a, 2, 4) == want


def test_product_coincidence_between_distinct_partition_pairs():
    left = multiply(w_lambda(Partition([2, 2, 1])), w_lambda(Partition([3, 1])))
    right = multiply(w_lambda(Partition([2, 2])), w_lambda(Partition([3, 1, 1])))
    assert left == right


def test_functional_equation_exhaustive_and_mixed():
    start = time.monotonic()
    for n in range(1, 9):
        for lam in partitions_of(n):
            e = _edv((X, lam.parts))
            p = next(good_primes(EdvContext(e, 1)))
            profiles = [splitting_profile(X, p)]
            data = functional_equation_data(e, profiles)
            assert verify_functional_equation(generic_local_factor(e, profiles), data), lam

    mixed = _edv((X, (2, 1)), (IntPoly((-1, 1)), (3,)))
    checked = 0
    for p in itertools.islice(good_primes(EdvContext(mixed, 1)), 5):
        profiles = [splitting_profile(f, p) for f, _ in mixed.entries]
        data = functional_equation_data(mixed, profiles)
        assert verify_functional_equation(generic_local_factor(mixed, profiles), data), p
        checked += 1
    assert checked == 5
    assert time.monotonic() - start < 30.0


# x - c for small c, two quadratics with distinct splitting behaviour, a
# cyclotomic and two cubics; any few of them are pairwise coprime
_FE_FACTORS = [IntPoly((-c, 1)) for c in range(-2, 3)] + [
    IntPoly(coeffs) for coeffs in
    ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (-1, -1, 0, 1))
]


@st.composite
def _random_types(draw, n_max=12):
    """An EDV of 1-3 distinct factors from _FE_FACTORS, each with a random
    partition, of total size n = sum deg(f) * |lambda| <= n_max."""
    fs = draw(st.lists(st.sampled_from(_FE_FACTORS), min_size=1, max_size=3,
                       unique_by=lambda f: f.coeffs))
    pairs = []
    used = 0
    for k, f in enumerate(fs):
        room = n_max - used - sum(g.degree for g in fs[k + 1:])
        size = draw(st.integers(1, room // f.degree))
        cuts = sorted(draw(st.sets(st.integers(1, size - 1)))) if size > 1 else []
        parts = sorted((b - a for a, b in zip([0] + cuts, cuts + [size])), reverse=True)
        pairs.append((f, Partition(parts)))
        used += f.degree * size
    return ElementaryDivisorVector.from_pairs(pairs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_random_types())
def test_functional_equation_for_random_types(edv):
    """At the first three good primes, the generic local factor of a random
    type inverts with the exponents functional_equation_data predicts."""
    assert edv.n <= 12
    for p in itertools.islice(good_primes(EdvContext(edv, 1)), 3):
        profiles = profiles_at(edv, p)
        data = functional_equation_data(edv, profiles)
        assert verify_functional_equation(generic_local_factor(edv, profiles), data), (edv, p)


def test_functional_equation_data_collides_where_factors_differ():
    lam_a = Partition([3, 1, 1, 1, 1])
    lam_b = Partition([2, 2, 2, 1])
    e_a = _edv((X, lam_a.parts))
    e_b = _edv((X, lam_b.parts))
    p = next(good_primes(EdvContext(e_a, 1)))
    assert p == next(good_primes(EdvContext(e_b, 1)))
    prof = [splitting_profile(X, p)]
    assert functional_equation_data(e_a, prof) == functional_equation_data(e_b, prof)
    assert w_lambda(lam_a.dual()) != w_lambda(lam_b.dual())


def test_exceptional_2x2_family_matches_brute_force():
    zeta_pair = BinomialProduct.from_factors([(0, 1, -1), (1, 2, -1)])
    for p, e in ((2, 1), (2, 2), (3, 1)):
        a = IntMatrix(((0, p ** e), (0, 0)))
        full = exceptional_factor_2x2(e) * zeta_pair
        want = tuple(full.series(p, 5))
        got = count_invariant_sublattices(a, p, 5)
        assert got == want, (p, e)
    assert exceptional_factor_2x2(0).is_one


def test_quadratic_irrational_splitting_dichotomy():
    a = companion(IntPoly((1, 0, 1)))  # x^2 + 1
    e = edv_context(a).edv
    split = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89]
    inert = [3, 7, 11, 19, 23, 31, 43, 47, 59, 67]
    for p in split:
        f = generic_local_factor(e, profiles_at(e, p))
        assert f.factors == ((0, 1, -2),)
        assert count_invariant_sublattices(a, p, 4) == (1, 2, 3, 4, 5), p
    for p in inert:
        f = generic_local_factor(e, profiles_at(e, p))
        assert f.factors == ((0, 2, -1),)
        assert count_invariant_sublattices(a, p, 4) == (1, 0, 1, 0, 1), p


def test_abscissa_is_partition_length_everywhere():
    for n in range(1, 9):
        for lam in partitions_of(n):
            e = _edv((X, lam.parts))
            alpha, _ = abscissa(e)
            assert alpha == len(lam.parts)
            assert abscissa_from_factors(w_lambda(lam.dual())) == alpha
    # two-step nilpotent pattern: one long block plus one trivial block
    for n in range(1, 7):
        m = n_of(Partition([n + 1, 1]))
        alpha, _ = abscissa(edv_context(m).edv)
        assert alpha == 2


def test_randomized_campaign_no_mismatch_at_good_primes(capsys):
    """50 seeded random matrices with squarefree minimal polynomials whose
    irreducible factors have degree at most 2; at heuristically good primes
    the symbolic factor must reproduce brute force exactly, in `verify`."""
    start = time.monotonic()
    rng = random.Random(20260815)
    accepted = []
    while len(accepted) < 50:
        n = len(accepted) % 3 + 1
        m = IntMatrix(
            tuple(
                tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
            )
        )
        fac = factor_over_z(minpoly(m))
        if all(mult == 1 and g.degree <= 2 for g, mult in fac):
            accepted.append(m)

    for m in accepted:
        primes = list(itertools.islice(good_primes(edv_context(m)), 3))
        rc = main(["verify", json.dumps(m.to_json()), "--max-index-exp", "3", "--format", "json"])
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [rep["prime"] for rep in reports] == primes
        for rep in reports:
            assert rep["heuristically_good"], (m.entries, rep)
            assert rep["formula_values"] == rep["oracle_values"], (m.entries, rep)
            assert not rep["demoted"]
        assert rc == 0
    assert time.monotonic() - start < 300.0


def test_power_series_ring_coefficients_against_naive_product():
    n_max = 1000
    coeffs = powerseries_ring_coeffs(n_max)

    # independent re-implementation: truncated Dirichlet multiplication of
    # the factors zeta(j s - j + 1), one for each j with 2^j <= n_max
    out = [0] * (n_max + 1)
    out[1] = 1
    j = 1
    while 2 ** j <= n_max:
        fac = [0] * (n_max + 1)
        m = 1
        while m ** j <= n_max:
            fac[m ** j] = m ** (j - 1)
            m += 1
        new = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            if out[d]:
                for q in range(1, n_max // d + 1):
                    if fac[q]:
                        new[d * q] += out[d] * fac[q]
        out = new
        j += 1

    assert coeffs == out[1:]
    assert coeffs[1] == 1  # a_2
    assert coeffs[3] == 3  # a_4


def test_distinct_partitions_have_distinct_local_factors():
    for n in range(1, 9):
        lams = list(partitions_of(n))
        for lam, mu in itertools.combinations(lams, 2):
            assert w_lambda(lam) != w_lambda(mu), (lam, mu)
