import importlib.util
import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest
import sympy.core.random
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from submodzeta import oracle
from submodzeta.canonical import edv_context
from submodzeta.cli import main
from submodzeta.linalg import IntMatrix, resultant
from submodzeta.oracle import (
    _INT64_SAFE,
    _PACK,
    BudgetError,
    _LatticeTree,
    _batches,
    _count_numpy,
    _hnf,
    _level_totals,
    _int64_bound,
    _reduced,
    _stack,
    compositions,
    count_at_exponent,
    count_invariant_sublattices,
)
from submodzeta.partitions import Partition
from submodzeta.polyfactor import IntPoly
from submodzeta.zetacore import dirichlet_coefficients, generic_local_factor

from linalg_helpers import (
    block_diag,
    charpoly,
    companion,
    diag,
    hnf,
    int_inverse,
    is_invariant,
    n_of,
    partitions_of,
    plus_scalar,
    profiles_at,
    random_unimodular,
)


def _totals(n, p, top):
    """The candidate totals of levels 0..top."""
    return list(itertools.islice(_level_totals(n, p), top + 1))


# ---------------------------------------------------------------------------
# enumeration plumbing


def test_compositions_order_and_count():
    got = list(compositions(2, 3))
    assert got[0] == (0, 0, 2)
    assert got == sorted(got)
    assert len(got) == 6  # C(2+2, 2)
    assert all(sum(c) == 2 for c in got)
    assert list(compositions(0, 2)) == [(0, 0)]
    for e in range(7):
        for n in range(1, 5):
            lex = [c for c in itertools.product(range(e + 1), repeat=n) if sum(c) == e]
            assert list(compositions(e, n)) == lex


def test_candidate_total_matches_visits():
    for n, p, e in [(1, 2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 1)]:
        a = IntMatrix(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
        count, visits = count_at_exponent(a, p, range(e, e + 1))
        assert visits == _totals(n, p, e)[e]
        # zero matrix: every sublattice is invariant, count == number of
        # index-p^e sublattices of Z^n
        assert count == visits


# ---------------------------------------------------------------------------
# direct counts against known series


def test_zero_matrix_2x2():
    vals = count_invariant_sublattices(diag(0, 0), 2, 2)
    assert vals == (1, 3, 7)


def test_nilpotent_single_block():
    a = n_of(Partition([2]))
    assert count_invariant_sublattices(a, 2, 5) == (1, 1, 3, 3, 7, 7)
    assert count_invariant_sublattices(a, 3, 3) == (1, 1, 4, 4)


def test_nilpotent_two_blocks():
    a = n_of(Partition([2, 1]))
    assert count_invariant_sublattices(a, 2, 5) == (1, 3, 11, 27, 75, 171)


def test_companion_quadratic():
    a = companion(IntPoly((1, 0, 1)))  # x^2 + 1
    assert count_invariant_sublattices(a, 5, 4) == (1, 2, 3, 4, 5)
    assert count_invariant_sublattices(a, 3, 4) == (1, 0, 1, 0, 1)


def test_counts_match_formula_at_good_primes():
    cases = [
        (n_of(Partition([3])), 5, 3),
        (n_of(Partition([1, 1])), 3, 3),
        (diag(0, 1), 3, 3),
        (companion(IntPoly((1, 0, 1))), 5, 3),
    ]
    for a, p, top in cases:
        e = edv_context(a).edv
        want = dirichlet_coefficients(generic_local_factor(e, profiles_at(e, p)), p, top)
        got = count_invariant_sublattices(a, p, top)
        assert got == want, (a.entries, p)


# ---------------------------------------------------------------------------
# invariance properties


def test_counts_invariant_under_unimodular_conjugation():
    rng = random.Random(7)
    base = n_of(Partition([2, 1]))
    for _ in range(4):
        u = random_unimodular(rng, 3)
        conj = u * base * int_inverse(u)
        assert (
            count_invariant_sublattices(conj, 2, 3)
            == count_invariant_sublattices(base, 2, 3)
        )
    # entries near 10^30 fail the int64 bound; reduced mod p^E they pass it
    u = IntMatrix(((1, 10 ** 15), (0, 1)))
    huge = u * companion(IntPoly((1, 0, 1))) * int_inverse(u)
    abs_max = max(abs(x) for row in huge.entries for x in row)
    assert _int64_bound(2, 3, 0, abs_max) >= _INT64_SAFE
    assert count_invariant_sublattices(huge, 5, 4) == (1, 2, 3, 4, 5)
    assert count_invariant_sublattices(huge, 3, 4) == (1, 0, 1, 0, 1)


def test_reduced_matrices_that_fail_the_int64_bound_count_on_objects(monkeypatch):
    # at p^E = 13^6 the reduced entries of the 10^30 conjugate of x^2+1 still
    # fail the bound, so the higher levels run in dtype object; the tree works
    # in Python integers, so HNF enumeration is made to produce every level
    p, top = 13, 6
    _forced(monkeypatch, False)
    huge = _huge_x2_plus_1()
    assert _int64_bound(2, p, top, _abs_max(_reduced(huge, p ** top))) >= _INT64_SAFE
    dtypes = []
    chosen = oracle._action_dtype

    def recording(*args):
        dtypes.append(chosen(*args))
        return dtypes[-1]

    monkeypatch.setattr(oracle, "_action_dtype", recording)
    # p = 1 mod 4 splits in Z[i]: e + 1 ideals of norm p^e
    assert count_invariant_sublattices(huge, p, top) == tuple(range(1, top + 2))
    assert object in dtypes and np.int64 in dtypes


def test_block_diagonal_counts_are_convolutions():
    # counts for a block-diagonal matrix at a prime good for both blocks
    # multiply as Dirichlet series, i.e. convolve coefficientwise
    top = 3
    p = 5
    a_vals = count_invariant_sublattices(n_of(Partition([2])), p, top)
    b_vals = count_invariant_sublattices(diag(1), p, top)
    blocks = IntMatrix(
        (
            (0, 1, 0),
            (0, 0, 0),
            (0, 0, 1),
        )
    )
    got = count_invariant_sublattices(blocks, p, top)
    conv = tuple(
        sum(a_vals[i] * b_vals[k - i] for i in range(k + 1)) for k in range(top + 1)
    )
    assert got == conv


def _batch_size(monkeypatch, size):
    """Test at most `size` candidates at a time, packing at most min(size, _PACK)."""
    monkeypatch.setattr(oracle, "_BATCH", size)
    monkeypatch.setattr(oracle, "_PACK", min(size, _PACK))


def test_int64_and_object_dtypes_agree(monkeypatch):
    cases = [
        (n_of(Partition([2, 1])), 2, 3),
        (companion(IntPoly((1, 0, 1))), 3, 3),
        (diag(0, 2), 2, 4),
        (n_of(Partition([2, 2])), 2, 2),
    ]
    for a, p, top in cases:
        n = a.n_rows
        for e in range(top + 1):
            diags = [tuple(p ** ej for ej in comp) for comp in compositions(e, n)]
            seen = set()
            # small batches split the larger diagonals and make packed groups
            # open and close at different diagonals; large ones pack the level
            for size in (5, 7, 1 << 14, 1 << 16):
                _batch_size(monkeypatch, size)
                for dtype in (np.int64, object):
                    alone = [_count_numpy(a.entries, [d], dtype) for d in diags]
                    got = _count_numpy(a.entries, diags, dtype)
                    assert got == tuple(map(sum, zip(*alone))), (a.entries, e, size)
                    seen.add(got)
            assert len(seen) == 1, (a.entries, e)
            assert seen.pop()[1] == _totals(n, p, e)[e]


def _composition_total(n, p, e):
    """The candidate total of level e by definition: each diagonal d has prod_j d_j^j bases."""
    total = 0
    for comp in compositions(e, n):
        size = 1
        for j, ej in enumerate(comp):
            size *= p ** (j * ej)
        total += size
    return total


def test_candidate_total_matches_the_composition_sum():
    for n in range(1, 6):
        for p in (2, 3, 5, 7):
            for e in range(9):
                assert _totals(n, p, e)[e] == _composition_total(n, p, e), (n, p, e)


def _pattern_levels(n, p):
    """The tree's diagonal patterns of each codimension k, with their free positions."""
    return [[(d, [(i, j) for j in range(n) for i in range(j) if d[i] == 1 and d[j] == p])
             for d in itertools.product((1, p), repeat=n) if d.count(p) == k]
            for k in range(1, n + 1)]


def _stacked(batches, dtype):
    return [_stack(b, np.arange(size), dtype) for b, size in batches]


def _mixed_radix_bases(n, level):
    """The bases of a level by a pure-Python loop: per diagonal, its free
    positions over [0, diag[j]) in mixed radix, the last position fastest."""
    out = []
    for diag, free in level:
        free = [(i, j) for i, j in free if diag[j] > 1]
        for values in itertools.product(*(range(diag[j]) for _, j in free)):
            rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(rows)
    return out


@pytest.mark.parametrize("n, p, e", [(2, 2, 4), (2, 5, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2),
                                     (4, 2, 2)])
def test_packed_levels_yield_the_per_diagonal_bases_in_order(n, p, e, monkeypatch):
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hnf_level = [(tuple(p ** x for x in comp), positions) for comp in compositions(e, n)]
    reference = np.array([b.entries for b in _hnf_bases(n, p, e)])
    for dtype in (np.int64, object):
        for level in [hnf_level] + _pattern_levels(n, p):
            for size in (1, 5, 7, 1 << 14):
                _batch_size(monkeypatch, size)
                batches = list(_batches(n, level, dtype))
                packed = _stacked(batches, dtype)
                assert all(len(b) <= size for b in packed)
                alone = [b for pair in level
                         for b in _stacked(_batches(n, [pair], dtype), dtype)]
                assert np.concatenate(packed).tolist() == np.concatenate(alone).tolist()
                assert np.concatenate(packed).tolist() == _mixed_radix_bases(n, level)
            if level is hnf_level:
                assert np.concatenate(packed).tolist() == reference.tolist()
            # no diagonal is split at the last batch size: an entry is an array
            # exactly where the bases of its batch differ
            for (b, _), bases in zip(batches, packed):
                for i in range(n):
                    for j in range(n):
                        constant = bool((bases[:, i, j] == bases[0, i, j]).all())
                        assert isinstance(b[i][j], int) == constant, (level, i, j)


@pytest.mark.parametrize("diag, size", [
    ((1, 27), 5),           # one position, runs of 5 values from 0, 5, ..., 25
    ((1, 1, 8), 5),         # the last position in runs of 5, 3 under each prefix
    ((1, 1, 8), 16),        # the last position whole, the one before in runs of 2
    ((1, 2, 4), 3),
    ((1, 3, 9), 20),        # runs of 2 values of 9: the last run is short
    ((1, 1, 2, 8), 50),     # the last position whole, the one before in runs of 6
    ((2, 4, 8), 7),
])
def test_split_diagonals_yield_the_mixed_radix_bases_in_order(diag, size, monkeypatch):
    n = len(diag)
    level = [(diag, [(i, j) for i in range(n) for j in range(i + 1, n)])]
    starts = []
    split = oracle._split

    def spy(*args):
        for b, size in split(*args):
            starts.extend(int(x[0]) for row in b for x in row if not isinstance(x, int))
            yield b, size

    monkeypatch.setattr(oracle, "_split", spy)
    _batch_size(monkeypatch, size)
    want = _mixed_radix_bases(n, level)
    assert len(want) > size
    for dtype in (np.int64, object):
        starts.clear()
        batches = list(_batches(n, level, dtype))
        assert len(batches) > 1 and all(k <= size for _, k in batches)
        # some run of the head position starts past 0
        assert any(starts)
        got = np.concatenate(_stacked(batches, dtype))
        assert got.tolist() == want
        if dtype is object:
            assert all(type(x) is int for x in got.ravel())


def test_packed_batches_hold_at_most_the_pack_size():
    # diagonals of 2*_PACK, _PACK, _PACK/2, ..., 1 bases: the first alone,
    # the second filling a packed batch, and all the rest together
    top = _PACK.bit_length()
    level = [((2 ** x, 2 ** (top - x)), [(0, 1)]) for x in range(top + 1)]
    sizes = [size for _, size in _batches(2, level, np.int64)]
    assert sizes == [2 * _PACK, _PACK, _PACK - 1]


def test_unit_coefficient_always_one():
    for a in (diag(7), n_of(Partition([3])), companion(IntPoly((2, 0, 1)))):
        assert count_invariant_sublattices(a, 2, 1)[0] == 1


# ---------------------------------------------------------------------------
# guard rails


def test_budget_errors():
    with pytest.raises(BudgetError):
        count_invariant_sublattices(diag(0, 0, 0, 0, 0), 2, 1)
    with pytest.raises(BudgetError):
        count_invariant_sublattices(diag(0, 0, 0), 2, 6, max_candidates=1000)
    # raising the dimension cap unblocks (tiny case)
    vals = count_invariant_sublattices(diag(*([0] * 5)), 2, 1, max_n=5)
    assert vals[0] == 1


def test_budget_error_comes_at_the_first_level_past_the_budget():
    # levels 0..25 of the 2x2 zero matrix at p = 2 hold 2^27 - 28 > 1.2 * 10^8
    # candidates; the total of the last of 10^6 levels alone has 10^6 bits
    with pytest.raises(BudgetError, match="134217700 HNF candidates up to level 25"):
        count_invariant_sublattices(diag(0, 0), 2, 10 ** 6)


def test_input_validation():
    with pytest.raises(ValueError):
        count_invariant_sublattices(diag(0, 0), 4, 2)  # not prime
    with pytest.raises(ValueError):
        count_invariant_sublattices(diag(0, 0), 2, -1)
    with pytest.raises(ValueError, match="max_exp must be a non-negative integer"):
        count_invariant_sublattices(diag(0, 0), 2, True)  # a bool is not a size
    with pytest.raises(ValueError):
        count_invariant_sublattices(
            IntMatrix(((0, 1, 0), (0, 0, 1))), 2, 2
        )  # not square


# ---------------------------------------------------------------------------
# formula against oracle in `verify`, and demotion


def _verify_report(capsys, a, p, top):
    """Exit code and the one report of `verify --format json` on a at p, E = top."""
    rc = main(["verify", json.dumps(a.to_json()), "--primes", str(p),
               "--max-index-exp", str(top), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 1
    assert doc["all_good_primes_match"] is (rc == 0)
    return rc, doc["reports"][0]


def test_compare_good_prime_match(capsys):
    rc, rep = _verify_report(capsys, n_of(Partition([2, 1])), 5, 3)
    assert rc == 0
    assert rep["heuristically_good"]
    assert rep["mismatch_index"] is None
    assert not rep["demoted"]
    assert rep["formula_values"] == rep["oracle_values"]


def test_compare_bad_prime_reported_not_demoted(capsys):
    # p=2 <= n: heuristically bad, formula still evaluable and happens to match
    rc, rep = _verify_report(capsys, n_of(Partition([2])), 2, 4)
    assert rc == 0
    assert not rep["heuristically_good"]
    assert not rep["demoted"]
    assert rep["mismatch_index"] is None
    assert rep["formula_values"] == rep["oracle_values"]


def test_compare_demotes_hidden_exceptional_prime(capsys):
    # [[0,9],[0,0]]: minimal polynomial x^2, but 3-adically the module is not
    # what the generic formula assumes; the heuristic misses p=3
    a = IntMatrix(((0, 9), (0, 0)))
    rc, rep = _verify_report(capsys, a, 3, 4)
    assert rc == 2
    assert rep["heuristically_good"]
    assert rep["formula_values"] != rep["oracle_values"]
    assert rep["demoted"]
    assert rep["mismatch_index"] == 1
    assert rep["oracle_values"] == [1, 4, 13, 13, 40]


def test_compare_ramified_prime_has_no_formula(capsys):
    rc, rep = _verify_report(capsys, companion(IntPoly((1, 0, 1))), 2, 3)
    assert rc == 0
    assert rep["formula_values"] is None
    assert not rep["heuristically_good"]
    assert not rep["demoted"]  # bad primes carry no guarantee, nothing to demote
    assert rep["mismatch_index"] is None
    # one ideal per index: the local order is a discrete valuation ring
    assert rep["oracle_values"] == [1, 1, 1, 1]


def test_compare_scaled_nilpotent_mismatch_without_demotion(capsys):
    # [[0,2],[0,0]] at p=2: the heuristic already flags the prime, the generic
    # formula is evaluable but wrong, and no demotion happens
    rc, rep = _verify_report(capsys, IntMatrix(((0, 2), (0, 0))), 2, 4)
    assert rc == 0
    assert rep["formula_values"] == [1, 1, 3, 3, 7]
    assert rep["oracle_values"] == [1, 3, 3, 7, 7]
    assert not rep["heuristically_good"]
    assert rep["mismatch_index"] == 1
    assert not rep["demoted"]


def test_report_json_round_trip_fields(capsys):
    _, rep = _verify_report(capsys, n_of(Partition([2])), 5, 2)
    assert list(rep) == ["prime", "max_exp", "formula_values", "oracle_values",
                         "heuristically_good", "mismatch_index", "demoted"]
    assert rep["prime"] == 5
    assert rep["max_exp"] == 2
    assert rep["oracle_values"] == [1, 1, 6]
    assert rep["formula_values"] == [1, 1, 6]
    assert rep["demoted"] is False


# ---------------------------------------------------------------------------
# the tree of invariant lattices against HNF enumeration


def _tree_counts(a, p, top):
    """Levels 2..top produced by the tree alone, from the level-1 HNF nodes."""
    tree = _LatticeTree(a, p, _totals(a.n_rows, p, top))
    nodes = []
    count_at_exponent(a, p, range(1, 2), nodes)
    tree.record(1, nodes)
    return [tree.produce(e) for e in range(2, top + 1)]


def _hnf_counts(a, p, top):
    return [count_at_exponent(a, p, range(e, e + 1))[0] for e in range(2, top + 1)]


def _huge_x2_plus_1():
    u = IntMatrix(((1, 10 ** 15), (0, 1)))
    return u * companion(IntPoly((1, 0, 1))) * int_inverse(u)


@pytest.mark.parametrize("name, a, p, top", [
    ("x^2+1 split", companion(IntPoly((1, 0, 1))), 5, 5),
    ("x^2+1 inert", companion(IntPoly((1, 0, 1))), 3, 6),
    ("N_(2,1)", n_of(Partition([2, 1])), 2, 5),
    ("zero", diag(0, 0), 2, 6),
    ("zero 3x3", diag(0, 0, 0), 3, 3),
    ("exceptional", IntMatrix(((0, 9), (0, 0))), 3, 5),
    ("scaled nilpotent", IntMatrix(((0, 2), (0, 0))), 2, 6),
    ("10^30 entries, object dtype", _huge_x2_plus_1(), 5, 4),
])
def test_tree_matches_hnf_per_level(name, a, p, top):
    assert _tree_counts(a, p, top) == _hnf_counts(a, p, top), name


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.integers(-4, 4), st.integers(-10 ** 20, 10 ** 20)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)),
    st.sampled_from([2, 3, 5, 7]),
)
def test_tree_matches_hnf_on_random_matrices(rows, p):
    a = IntMatrix(tuple(tuple(r) for r in rows))
    top = {1: 5, 2: 3, 3: 2}[a.n_rows]
    assert _tree_counts(a, p, top) == _hnf_counts(a, p, top)
    assert count_invariant_sublattices(a, p, top)[2:] == tuple(_hnf_counts(a, p, top))


@st.composite
def _scalar_mod_p(draw):
    """(cI + p*B, p, top): n = 2-4, p <= 7, at most 2*10^4 candidates in levels
    2..top.  Every node is scalar mod p at first, so L/N0 has dimension k > 1
    and the tree builds its hyperplanes."""
    n = draw(st.integers(2, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    tops = [e for e in range(2, 7) if sum(_totals(n, p, e)[2:]) <= 2 * 10 ** 4]
    assume(tops)
    c = draw(st.integers(-5, 5))
    b = draw(_square(n, st.integers(-3, 3)))
    a = IntMatrix([[c * (i == j) + p * x for j, x in enumerate(row)] for i, row in enumerate(b)])
    return a, p, draw(st.sampled_from(tops))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_scalar_mod_p())
def test_tree_matches_hnf_below_nodes_that_are_scalar_mod_p(case):
    a, p, top = case
    assert _tree_counts(a, p, top) == _hnf_counts(a, p, top)


def _random_6x6():
    """The first three 6x6 matrices drawn row by row from random.Random(1),
    entries in [-9, 9]."""
    rng = random.Random(1)
    return [IntMatrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
            for _ in range(3)]


def _timed_count(a, p, top):
    start = time.perf_counter()
    counts = count_invariant_sublattices(a, p, top, max_n=6, max_candidates=10 ** 14)
    return counts, time.perf_counter() - start


@pytest.mark.parametrize("p, wants", [
    # at p = 5 the values of the tree that tested every subspace of F_5^6;
    # level 2 of the third draw also against HNF enumeration (12.7 million
    # candidates), level 3 has 4*10^10
    (5, [(1, 0, 1, 0), (1, 0, 0, 2), (1, 2, 4, 6)]),
    (7, [(1, 4, 11, 24), (1, 0, 0, 0), (1, 1, 2, 3)]),
])
def test_random_6x6_counts_in_time_and_under_conjugation(p, wants):
    rng = random.Random(6)
    for a, want in zip(_random_6x6(), wants):
        counts, seconds = _timed_count(a, p, 3)
        assert counts == want
        # the tree builds a few children per level (3-21 ms on one CPU);
        # testing every subspace of F_7^6 took 4.8-6.6 s
        assert seconds < 1.0
        assert _timed_count(_conjugate(random_unimodular(rng, 6), a), p, 3)[0] == want
    if p == 5:
        assert count_at_exponent(a, p, range(2, 3))[0] == want[2]


def test_third_random_6x6_keeps_the_cube_of_its_factor_mod_5():
    # chi = (x - 1)(x - 2)^3(x^2 - 2x - 1) mod 5: factoring only squarefree
    # polynomials misses the repeated factor x - 2
    a = _random_6x6()[2]
    assert a.entries[0] == (7, -6, -4, 7, 3, 2)
    tree = _LatticeTree(a, 5, _totals(6, 5, 3))
    assert sorted(d for d, _ in tree.factors) == [1, 1, 2]
    assert _timed_count(a, 5, 3)[0] == (1, 2, 4, 6)


def test_x2_plus_1_at_89_runs_past_the_int64_bound_in_time():
    # (n*p^E)^2 >= 2^62 switched the old tree off, and HNF enumeration of
    # 5.7*10^9 candidates ran for minutes; the tree builds two children a node
    start = time.perf_counter()
    assert count_invariant_sublattices(companion(IntPoly((1, 0, 1))), 89, 5,
                                       max_candidates=10 ** 10) == (1, 2, 3, 4, 5, 6)
    assert time.perf_counter() - start < 0.5


def test_counts_leave_the_global_random_state_alone():
    # x^2+1 at p = 13: chi splits into two linear factors mod 13, so the
    # equal-degree step of gf_factor runs, and the tree produces levels 4-5.
    # That step draws from sympy's own generator, not from `random`
    state, sympy_state = random.getstate(), sympy.core.random.rng.getstate()
    assert count_invariant_sublattices(companion(IntPoly((1, 0, 1))), 13, 5) == (1, 2, 3, 4, 5, 6)
    assert random.getstate() == state
    assert sympy.core.random.rng.getstate() != sympy_state


def test_tree_factors_do_not_depend_on_the_sympy_seed():
    a = companion(IntPoly((1, 0, 1)))
    state = sympy.core.random.rng.getstate()
    factors = []
    try:
        for seed in (0, 1):
            sympy.core.random.seed(seed)
            factors.append(_LatticeTree(a, 13, _totals(2, 13, 5)).factors)
    finally:
        sympy.core.random.rng.setstate(state)
    assert factors[0] == factors[1]
    assert [d for d, _ in factors[0]] == [1, 1]


def _hnf_bases(n, p, e):
    """Every HNF basis of determinant p^e, by a pure-Python loop."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for exps in itertools.product(range(e + 1), repeat=n):
        if sum(exps) != e:
            continue
        d = [p ** x for x in exps]
        for values in itertools.product(*(range(d[j]) for _, j in positions)):
            rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(positions, values):
                rows[i][j] = v
            yield IntMatrix(rows)


def _as_matrices(batch):
    return [IntMatrix([[int(x) for x in row] for row in b]) for b in batch]


def _checked_children(monkeypatch, tree):
    """Make the kernel record, as integer matrices, the bases the tree checks:
    its invariance check of every child, one basis of ints at a time."""
    checked = []
    invariance = oracle._invariance

    def recording(b, a):
        ok = invariance(b, a)
        if a is tree.entries:
            assert ok is True
            checked.append(IntMatrix(b))
        return ok

    monkeypatch.setattr(oracle, "_invariance", recording)
    return checked


def _reference_cases():
    """Seeded matrices, n <= 3, each with a prime in {2, 3} and a top level."""
    rng = random.Random(2016)
    cases = [(diag(0, 0), 2, 3), (diag(0, 0, 0), 3, 2)]
    for n, top in ((2, 3), (3, 2)):
        c = rng.randint(-9, 9)
        cases.append((diag(*[c] * n), rng.choice([2, 3]), top))
    for lam, top in (([2], 3), ([2, 1], 2), ([3], 2)):
        u = random_unimodular(rng, sum(lam))
        cases.append((u * n_of(Partition(lam)) * int_inverse(u), rng.choice([2, 3]), top))
    cases += [(companion(IntPoly((1, 0, 1))), p, 3) for p in (2, 3)]
    for n in (1, 2, 2, 3, 3):
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        cases.append((a, rng.choice([2, 3]), {1: 3, 2: 3, 3: 2}[n]))
    u = IntMatrix(((1, 10 ** 10), (0, 1)))
    cases.append((u * companion(IntPoly((1, 0, 1))) * int_inverse(u), 2, 3))
    return cases


@pytest.mark.parametrize("a, p, top", _reference_cases())
def test_invariant_bases_match_a_pure_python_reference(a, p, top, monkeypatch):
    n = a.n_rows
    wants, hnf_nodes = [{IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])}], []
    for e in range(1, top + 1):
        want = {b for b in _hnf_bases(n, p, e) if is_invariant(b, a)}
        nodes = []
        count, _ = count_at_exponent(a, p, range(e, e + 1), nodes)
        bases = [b for batch in nodes for b in _as_matrices(batch)]
        assert count == len(bases) == len(want)
        assert set(bases) == want
        wants.append(want)
        hnf_nodes.append(nodes)
    # the tree's levels, recorded or produced, and the children its kernel
    # check accepts, against the same reference; the tree reaches one level
    # past top, so that it expands level top too
    tree = _LatticeTree(a, p, _totals(n, p, top + 1))
    tree.record(1, hnf_nodes[0])
    assert set(_as_matrices(tree.levels[1])) == wants[1]
    bases = _checked_children(monkeypatch, tree)
    for e in range(2, top + 2):
        count = tree.produce(e)
        if e <= top:
            assert count == len(wants[e])
            assert set(_as_matrices(tree.levels[e])) == wants[e]
    # each invariant lattice of the produced levels 2..top checked once
    assert len(bases) == len(set(bases)) == sum(map(len, wants[2:])) + count
    assert set(bases) >= set().union(*wants[2:])
    assert all(is_invariant(c, a) for c in bases)


def test_reference_cases_reach_the_object_path():
    a, p, top = _reference_cases()[-1]
    abs_max = max(abs(x) for row in a.entries for x in row)
    assert 10 ** 19 < abs_max < 10 ** 21
    assert _int64_bound(a.n_rows, p, 1, abs_max) >= _INT64_SAFE


@st.composite
def _kernel_batch(draw):
    """(A, members, dtype): n <= 4, a batch of 1-5 HNF bases and the dtype of
    the arrays that hold them.  Each entry is drawn from a pool of one or two
    values, so members agree on some entries and differ on others; an entry
    right of a pivot d_j is taken mod d_j."""
    n = draw(st.integers(1, 4))
    a = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    pools = {(i, j): draw(st.lists(st.integers(int(i == j), 8), min_size=1, max_size=2))
             for i in range(n) for j in range(i, n)}
    members = []
    for _ in range(draw(st.integers(1, 5))):
        pick = {pos: draw(st.sampled_from(pool)) for pos, pool in pools.items()}
        members.append([[pick[i, j] % pick[j, j] if j > i else pick[i, j] if j == i else 0
                         for j in range(n)] for i in range(n)])
    return a, members, draw(st.sampled_from([np.int64, object]))


# _CARRY_A with bases of diagonal (2, 4, 4): the first is invariant, and the
# others fail only at column 2 of row 0, after the quotient of column 0 was
# carried into it; a kernel that does not carry q gets every verdict wrong
_CARRY_A = [[-2, -2, 2], [-2, 1, -1], [1, -2, 2]]
_CARRY_BASES = [[[2, 2, 2], [0, 4, 0], [0, 0, 4]], [[2, 0, 2], [0, 4, 0], [0, 0, 4]],
                [[2, 0, 0], [0, 4, 2], [0, 0, 4]], [[2, 0, 2], [0, 4, 2], [0, 0, 4]]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_batch())
@example((_CARRY_A, _CARRY_BASES[:3], np.int64))  # fails only at the last column
@example((_CARRY_A, _CARRY_BASES[1:], object))  # all fail in row 0: the early exit
@example((_CARRY_A, _CARRY_BASES[:1] * 2, np.int64))  # int only: the bool True
@example((_CARRY_A, _CARRY_BASES[1:2], np.int64))  # int only: the bool False
def test_kernel_verdict_matches_a_pure_python_reference(case):
    a, members, dtype = case
    n, k = len(a), len(members)
    b = [[members[0][i][j] if len({m[i][j] for m in members}) == 1
          else np.array([m[i][j] for m in members], dtype=dtype) for j in range(n)]
         for i in range(n)]
    ok = oracle._invariance(b, a)
    want = [is_invariant(IntMatrix(m), IntMatrix(a)) for m in members]
    if all(isinstance(x, int) for row in b for x in row):
        assert type(ok) is bool
    if type(ok) is bool:
        assert want == [ok] * k
    else:
        assert ok.dtype == bool and ok.shape == (k,)
        assert ok.tolist() == want


def test_actions_reject_a_basis_that_is_not_invariant(monkeypatch):
    # a kept level 1 with a basis that x^2+1 does not leave invariant: alone,
    # and after the two invariant lattices of level 1 at p = 5.  Its N0 is
    # all of L, which no invariant node has
    a = companion(IntPoly((1, 0, 1)))
    corrupt = np.array([[[5, 0], [0, 1]]])
    nodes = []
    assert count_at_exponent(a, 5, range(1, 2), nodes)[0] == 2
    for level in ([corrupt], nodes + [corrupt]):
        tree = _LatticeTree(a, 5, _totals(2, 5, 3))
        tree.record(1, level)
        with pytest.raises(RuntimeError, match="L/N0 has order 1 at level 1, not a power of 5"):
            tree.produce(2)
    # a child that is not invariant fails the kernel's check
    tree = _LatticeTree(a, 5, _totals(2, 5, 3))
    tree.record(1, nodes)
    children = [((5, 0), (0, 5)), ((25, 0), (0, 1))]
    monkeypatch.setattr(_LatticeTree, "_children", lambda *args: children)
    with pytest.raises(RuntimeError, match="a child basis at level 2 is not invariant"):
        tree.produce(2)


def _drop_the_first_batch(monkeypatch):
    """Make `_batches` lose one batch, as a miscounting enumeration would."""
    batches = oracle._batches
    monkeypatch.setattr(oracle, "_batches",
                        lambda *args: itertools.islice(batches(*args), 1, None))


def test_hnf_enumeration_raises_when_it_visits_too_few_candidates(monkeypatch):
    _drop_the_first_batch(monkeypatch)
    with pytest.raises(RuntimeError, match="oracle visited 0 candidates at p = 3, e = 1..1;"):
        count_at_exponent(companion(IntPoly((1, 0, 1))), 3, range(1, 2))
    # through the level loop, and through the peel's enumeration of its
    # block, which a nilpotent still takes (a scalar matrix enumerates nothing)
    for a in (companion(IntPoly((1, 0, 1))), IntMatrix(((0, 1), (0, 0)))):
        with pytest.raises(RuntimeError, match="oracle visited"):
            count_invariant_sublattices(a, 3, 2)


def _root_children(monkeypatch, wrap):
    """The level-1 children of the 2x2 zero matrix at p = 2, each HNF basis
    passed through `wrap`: L/N0 = F_2^2 has three lines."""
    tree = _LatticeTree(diag(0, 0), 2, _totals(2, 2, 3))
    monkeypatch.setattr(oracle, "_hnf", lambda w, modulus: wrap(_hnf(w, modulus)))
    return tree.produce(1)


@pytest.mark.parametrize("corrupt, message", [
    # an unnormalized hyperplane: every child the same
    pytest.param(lambda b: ((1, 0), (0, 2)),
                 r"built 3 hyperplanes \(1 distinct\) below a node of level 0", id="duplicates"),
    # a child of index p^2, not p^(l + d) = p
    pytest.param(lambda b: (b[0], (0, 2 * b[1][1])), "has index other than p", id="index"),
])
def test_tree_level_raises_when_it_builds_the_wrong_hyperplanes(corrupt, message, monkeypatch):
    assert _root_children(monkeypatch, lambda b: b) == 3
    calls = []

    def corrupted(b):
        # N0 = 2Z^2 is built first, then the three hyperplanes
        calls.append(b)
        return b if len(calls) == 1 else corrupt(b)

    with pytest.raises(RuntimeError, match=message):
        _root_children(monkeypatch, corrupted)


def _level_loop(a, p, top):
    """The counts of the level loop alone, on the matrix count_invariant_sublattices
    prepares: a matrix it would count from its trailing block is counted whole."""
    prepared = _reduced(oracle._triangular(a), p ** top)
    return tuple(oracle._level_counts(prepared, p, _totals(a.n_rows, p, top)))


def _recorded_hnf_levels(monkeypatch, a, p, top, count=None):
    """(e, whether the level's nodes were kept) for every HNF-enumerated level
    of the level loop, or of `count` when it is given."""
    seen = []
    hnf_level = oracle.count_at_exponent

    def recording(a, p, levels, nodes=None):
        seen.extend((e, nodes is not None) for e in levels)
        return hnf_level(a, p, levels, nodes)

    monkeypatch.setattr(oracle, "count_at_exponent", recording)
    (count or _level_loop)(a, p, top)
    return seen


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _block():
    return st.integers(1, 2).flatmap(lambda n: _square(n, st.integers(-4, 4)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_block(), _block(), st.sampled_from([2, 3, 5]))
def test_counts_of_a_block_sum_coprime_mod_p_convolve(a_rows, b_rows, p):
    """With charpolys coprime mod p, every invariant lattice of A + B splits
    along the two blocks, so its counts are the convolution of theirs."""
    a, b = IntMatrix(a_rows), IntMatrix(b_rows)
    assume(resultant(charpoly(a), charpoly(b)) % p)
    ca = count_invariant_sublattices(a, p, 3)
    cb = count_invariant_sublattices(b, p, 3)
    convolved = tuple(sum(ca[i] * cb[e - i] for i in range(e + 1)) for e in range(4))
    assert count_invariant_sublattices(block_diag(a, b), p, 3) == convolved


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        _square(n, st.integers(-4, 4)), _square(n, st.integers(-10 ** 20, 10 ** 20)))),
    st.integers(-10 ** 20, 10 ** 20),
    st.sampled_from([2, 3, 5]),
)
def test_shifting_by_cI_and_p_to_the_E_changes_no_count_or_producer(rows_x, c, p):
    rows, x = rows_x
    a = IntMatrix(rows)
    n = a.n_rows
    top = {1: 6, 2: 4, 3: 3}[n]
    q = p ** top
    shifted = IntMatrix([[v + (c if i == j else 0) + q * w for j, (v, w) in enumerate(zip(*r))]
                         for i, r in enumerate(zip(rows, x))])
    want = (1,) + tuple(count_at_exponent(a, p, range(e, e + 1))[0] for e in range(1, top + 1))
    assert count_invariant_sublattices(a, p, top) == want
    assert count_invariant_sublattices(shifted, p, top) == want
    levels = []
    for m in (a, shifted):
        with pytest.MonkeyPatch.context() as mp:
            levels.append(_recorded_hnf_levels(mp, m, p, top))
    assert levels[0] == levels[1]


def _zeros(a):
    return sum(x == 0 for row in a.entries for x in row)


def _abs_max(a):
    return max(abs(x) for row in a.entries for x in row)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: _square(
        n, st.one_of(st.integers(-4, 4), st.integers(-10 ** 20, 10 ** 20)))),
    st.one_of(st.integers(-9, 9), st.integers(-10 ** 20, 10 ** 20)),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 8),
)
def test_reduced_matrix_is_centred_sparser_and_no_larger(rows, c, p, max_exp):
    n = len(rows)
    a = IntMatrix([[x + (c if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(rows)])
    q = p ** max_exp
    r = _reduced(a, q)
    assert all(-q < 2 * x <= q for row in r.entries for x in row)
    # R = A mod q, the diagonal as every other entry
    assert all((x - y) % q == 0 for pair in zip(a.entries, r.entries) for x, y in zip(*pair))
    assert _zeros(r) >= _zeros(a)
    assert _abs_max(r) <= _abs_max(a)
    assert _int64_bound(n, p, max_exp, _abs_max(r)) <= _int64_bound(n, p, max_exp, _abs_max(a))


def test_reduced_matrix_examples():
    # every entry, on the diagonal or off it, goes to its centred residue
    # and nothing else: no scalar is subtracted
    for c, r in ((1, 1), (-1, -1), (74149, -91), (10 ** 18 + 7, 7)):
        assert _reduced(diag(c, c, c), 2 ** 8) == diag(r, r, r)
    assert _reduced(IntMatrix(((3, 10 ** 20), (-7, 5))), 1) == diag(0, 0)
    assert _reduced(diag(7, 7, 1), 3 ** 4) == diag(7, 7, 1)
    assert _reduced(diag(41, 40, -40), 3 ** 4) == diag(-40, 40, -40)
    # a residue of exactly half the modulus stays positive
    assert _reduced(IntMatrix(((5, -4), (12, 2 ** 70))), 8) == IntMatrix(((-3, 4), (4, 0)))


# ---------------------------------------------------------------------------
# the unimodular triangular conjugate of a matrix with one eigenvalue


def _conjugate(u, a):
    return u * a * int_inverse(u)


# ad(e_1) of the filiform Lie ring m_4, [e_1, e_i] = e_(i+1): row i is the image of e_i
_AD_E1_M4 = IntMatrix(((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
_BIG_SHEAR = IntMatrix(((1, 10 ** 15, 0), (0, 1, 0), (3, 0, 1)))
# a cyclic permutation: tr(N) = tr(N^2) = 0 with c = 0, yet N^3 = I
_CYCLIC = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def _is_strictly_upper(t):
    return all(x == 0 for i, row in enumerate(t.entries) for x in row[:i + 1])


@pytest.mark.parametrize("a, c", [
    (_conjugate(random_unimodular(random.Random(4), 4), _AD_E1_M4), 0),
    (plus_scalar(_conjugate(random_unimodular(random.Random(5), 3), n_of(Partition([2, 1]))), 7),
     7),
    (plus_scalar(_conjugate(random_unimodular(random.Random(6), 4), n_of(Partition([4]))), -3),
     -3),
    (IntMatrix(((2, -4, 0), (1, -2, 0), (1, -2, 0))), 0),
    (IntMatrix(((0, 9), (0, 0))), 0),
    # entries of 10^15, and a shift past 2^62
    (_conjugate(_BIG_SHEAR, n_of(Partition([2, 1]))), 0),
    (plus_scalar(_conjugate(_BIG_SHEAR, n_of(Partition([3]))), 2 ** 70), 2 ** 70),
])
def test_triangular_conjugate_is_strictly_upper_triangular_plus_cI(a, c):
    """a is a unimodular conjugate of a strictly upper-triangular matrix plus
    cI; the conjugate T of N = a - cI comes back without c."""
    t = oracle._triangular(a)
    assert _is_strictly_upper(t)
    nil = plus_scalar(a, -c)
    flag, u, u_inv = (IntMatrix(m) for m in oracle._flag(nil.entries))
    assert u * nil == t * u
    assert int_inverse(u) == u_inv
    assert flag == t


@pytest.mark.parametrize("a", [
    companion(IntPoly((1, 0, 1))),
    diag(1, 2),
    companion(IntPoly((-1, -1, 0, 1))),
    IntMatrix(((1, 1), (0, 0))),  # trace 1: not a multiple of n
    diag(0, 0, 0),
    diag(5, 5),
    _CYCLIC,
])
def test_triangular_conjugate_leaves_other_matrices_alone(a):
    assert oracle._triangular(a) is a


def test_last_power_reports_a_block_that_is_not_nilpotent():
    rows = [list(row) for row in _CYCLIC.entries]
    with pytest.raises(ValueError, match="not nilpotent"):
        oracle._last_power(rows, 3)
    with pytest.raises(ValueError, match="not nilpotent"):
        oracle._flag(rows)
    # its leading 2 x 2 block is nilpotent of index 2, and a zero block has no last power
    assert oracle._last_power(rows, 2) == [[0, 1], [0, 0]]
    assert oracle._last_power([[0, 0], [0, 0]], 2) is None
    assert count_invariant_sublattices(_CYCLIC, 2, 3) == _hnf_values(_CYCLIC, 2, 3)


def test_triangular_conjugate_rejects_a_corrupted_conjugator(monkeypatch):
    a = _conjugate(random_unimodular(random.Random(3), 3), n_of(Partition([3])))
    flag = oracle._flag

    def corrupted(which):
        def build(m):
            parts = [[list(row) for row in x] for x in flag(m)]
            parts[which][0][-1] += 1
            return parts
        return build

    for which in range(3):
        monkeypatch.setattr(oracle, "_flag", corrupted(which))
        with pytest.raises(RuntimeError, match="exact check"):
            oracle._triangular(a)


def _hnf_values(a, p, top):
    """The counts of count_at_exponent alone, level by level, on a as given."""
    return (1,) + tuple(count_at_exponent(a, p, range(e, e + 1))[0] for e in range(1, top + 1))


def _cheap_top(n, p):
    """The highest level up to 5 whose HNF candidates, over all levels, stay below 1500."""
    top = 0
    while top < 5 and sum(_totals(n, p, top + 1)) < 1500:
        top += 1
    return top


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
    st.one_of(st.integers(-9, 9), st.integers(2 ** 62, 2 ** 70), st.integers(-2 ** 70, -2 ** 62)),
    st.sampled_from([2, 3, 5]),
    st.randoms(use_true_random=False),
)
@example(Partition([2, 1, 1]), 2 ** 64 + 1, 2, random.Random(0))
def test_unipotent_counts_match_hnf_levels_of_the_raw_matrix(lam, c, p, rng):
    n = lam.size
    a = plus_scalar(_conjugate(random_unimodular(rng, n), n_of(lam)), c)
    t = oracle._triangular(a)
    # a scalar matrix comes back as it is, and any other without c
    assert t is a if max(lam.parts) == 1 else _is_strictly_upper(t)
    top = _cheap_top(n, p)
    assert count_invariant_sublattices(a, p, top) == _hnf_values(a, p, top)


def test_filiform_ad_e1_counts_match_hnf_levels_and_its_normal_form():
    a = _conjugate(random_unimodular(random.Random(11), 4), _AD_E1_M4)
    want = _hnf_values(a, 2, 4)
    assert count_invariant_sublattices(a, 2, 4) == want
    assert want == _hnf_values(n_of(Partition([3, 1])), 2, 4)


# ---------------------------------------------------------------------------
# the peel: a first column zero below the diagonal, counted from the trailing block


def _benchmark_workloads():
    """perfbench/workloads.py, where the benchmark's inputs are defined."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _benchmark_workloads()


def _peeled_and_looped(monkeypatch, a, p, top, **limits):
    """The counts of count_invariant_sublattices, which must take the peel, and of the level loop."""
    calls = []
    peel = oracle._peeled

    def spy(*args):
        calls.append(args)
        return peel(*args)

    monkeypatch.setattr(oracle, "_peeled", spy)
    got = count_invariant_sublattices(a, p, top, **limits)
    assert len(calls) == 1
    return got, _level_loop(a, p, top)


@pytest.mark.parametrize("n, p, top", _WORKLOADS.DENSE_CASES)
def test_peel_matches_the_level_loop_on_every_verify_dense_class(n, p, top, monkeypatch):
    rng = random.Random(100 * n + 10 * p + top)
    matrices = [diag(*[0] * n), diag(*[74149] * n)]
    for lam in _WORKLOADS.NILPOTENT_TYPES[n]:
        matrices.append(_conjugate(random_unimodular(rng, n), n_of(Partition(list(lam)))))
    for a in matrices:
        got, want = _peeled_and_looped(monkeypatch, a, p, top)
        assert got == want, (a.entries, p, top)


@pytest.mark.parametrize("a, p, top", [
    (diag(0), 2, 6),
    (diag(7), 3, 4),
    (diag(-2 ** 70), 5, 3),
    (diag(5), 2, 0),
    (diag(0, 0), 2, 0),
    (IntMatrix(((3, 1, 0), (0, 0, 2), (0, 1, 0))), 3, 0),
    (_conjugate(random_unimodular(random.Random(2), 4), n_of(Partition([2, 1, 1]))), 5, 0),
])
def test_peel_matches_the_level_loop_at_n_1_and_E_0(a, p, top, monkeypatch):
    got, want = _peeled_and_looped(monkeypatch, a, p, top)
    assert got == want
    # Z has one sublattice of each index, and level 0 holds Z^n alone
    assert got == ((1,) * (top + 1) if a.n_rows == 1 else (1,))


def test_peel_matches_the_level_loop_on_a_5x5_nilpotent(monkeypatch):
    a = _conjugate(random_unimodular(random.Random(5), 5), n_of(Partition([3, 2])))
    got, want = _peeled_and_looped(monkeypatch, a, 2, 3, max_n=5)
    assert got == want


def _first_column_zero(n):
    """n x n matrices whose first column is zero below the diagonal, as rows."""
    return _square(n, st.one_of(st.integers(-4, 4), st.integers(-10 ** 20, 10 ** 20))).map(
        lambda rows: [[0 if i and not j else x for j, x in enumerate(row)]
                      for i, row in enumerate(rows)])


def _one_eigenvalue(n):
    """Unimodular conjugates of N_lambda + cI, lambda a partition of n, as rows."""
    return st.tuples(st.sampled_from(list(partitions_of(n))), st.integers(-9, 9),
                     st.randoms(use_true_random=False)).map(
        lambda t: plus_scalar(_conjugate(random_unimodular(t[2], n), n_of(t[0])), t[1]).entries)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.one_of(_first_column_zero(n), _one_eigenvalue(n))),
    st.sampled_from([2, 3, 5]),
)
# d = 3 after the reduction, with t0 and T' - dI both nonzero
@example([[3, 1, 0], [0, 0, 2], [0, 1, 0]], 3)
# the same plus 2^70*I: d is past the int64 bound, T' - dI the same as above
@example([[3 + 2 ** 70, 1, 0], [0, 2 ** 70, 2], [0, 1, 2 ** 70]], 3)
@example([[-1, 2, 4], [0, 1, 0], [0, 3, 1]], 2)
def test_peel_matches_the_level_loop_on_random_matrices(rows, p):
    a = IntMatrix(rows)
    top = _cheap_top(a.n_rows, p)
    with pytest.MonkeyPatch.context() as mp:
        got, want = _peeled_and_looped(mp, a, p, top)
    assert got == want


@pytest.mark.parametrize("rows, block", [
    ([[3, 1, 0], [0, 0, 2], [0, 1, 0]], ((-3, 2), (1, -3))),
    ([[3 + 2 ** 70, 1, 0], [0, 2 ** 70, 2], [0, 1, 2 ** 70]], ((-3, 2), (1, -3))),
    # T' - dI has -200 on its diagonal, centred mod 3^5 = 243 to 43
    ([[100, 1, 0], [0, -100, 1], [0, 0, 50]], ((43, 1), (0, -50))),
], ids=["small", "shifted-by-2^70", "centred"])
def test_peel_enumerates_its_block_less_d_centred(rows, block, monkeypatch):
    """For d != 0 the peel hands count_at_exponent T' - dI, entries centred mod p^top."""
    p, top = 3, 5
    seen = []
    hnf = oracle.count_at_exponent

    def recording(a, p, levels, nodes=None):
        seen.append(a)
        return hnf(a, p, levels, nodes)

    a = IntMatrix(rows)
    want = _level_loop(a, p, top)
    monkeypatch.setattr(oracle, "count_at_exponent", recording)
    assert count_invariant_sublattices(a, p, top) == want
    assert seen == [IntMatrix(block)]


@pytest.mark.parametrize("t", [40, 2 ** 61])
def test_peel_crosses_from_int64_to_object_minors(t, monkeypatch):
    # [[0, t], [0, 0]] at p = 2: the trailing block [0] has one lattice 2^k Z
    # of each level k, with g = 2^k and o = max(0, k - v_2(t)).  Minors are
    # int64 while 1! * max(2^E, |t|) < 2^62, so up to E = 61, and all of
    # them Python integers past it.  t = 2^61 at E = 61 reduces to the zero
    # matrix, which the peel counts without minors.
    dtypes = []
    minor_gcds = oracle._minor_gcds

    def recording(cols, rows):
        dtypes.append(cols.dtype)
        return minor_gcds(cols, rows)

    monkeypatch.setattr(oracle, "_minor_gcds", recording)
    v = (t & -t).bit_length() - 1
    a = IntMatrix(((0, t), (0, 0)))
    for top, kinds in ((61, [np.int64]), (66, [object])):
        dtypes.clear()
        want = tuple(sum(2 ** k for k in range(e + 1) if k + max(0, k - v) <= e)
                     for e in range(top + 1))
        assert count_invariant_sublattices(a, 2, top, max_candidates=2 ** 70) == want
        assert dtypes == (kinds if t % 2 ** top else [])


@pytest.mark.parametrize("which", [0, 1])
def test_peel_rejects_an_index_that_is_not_a_power_of_p(which, monkeypatch):
    minor_gcds = oracle._minor_gcds

    def corrupted(cols, rows):
        out = list(minor_gcds(cols, rows))
        out[which] = out[which] * 3
        return out

    monkeypatch.setattr(oracle, "_minor_gcds", corrupted)
    with pytest.raises(RuntimeError, match="not a power of p"):
        count_invariant_sublattices(n_of(Partition([2, 1])), 2, 3)


def _refuse(*args):
    raise AssertionError("this count must not enumerate or expand minors")


def test_a_range_of_levels_enumerates_each_level_in_turn():
    for a, p, top in ((n_of(Partition([2, 1])), 2, 4), (companion(IntPoly((1, 0, 1))), 5, 3),
                      (diag(0, 0, 0), 3, 3), (_huge_x2_plus_1(), 5, 3)):
        nodes, per_level, counts = [], [], []
        count, visits = count_at_exponent(a, p, range(1, top + 1), nodes)
        for e in range(1, top + 1):
            counts.append(count_at_exponent(a, p, range(e, e + 1), per_level)[0])
        assert count == sum(counts)
        assert visits == sum(_totals(a.n_rows, p, top)[1:])
        assert np.concatenate(nodes).tolist() == np.concatenate(per_level).tolist()


@pytest.mark.parametrize("n, p, top", _WORKLOADS.DENSE_CASES)
def test_peel_enumerates_its_block_in_one_call(n, p, top, monkeypatch):
    calls = []
    hnf = oracle.count_at_exponent

    def recording(a, p, levels, nodes=None):
        out = hnf(a, p, levels, nodes)
        calls.append((levels, out[1]))
        return out

    monkeypatch.setattr(oracle, "count_at_exponent", recording)
    rng = random.Random(100 * n + 10 * p + top)
    for lam in _WORKLOADS.NILPOTENT_TYPES[n]:
        calls.clear()
        count_invariant_sublattices(
            _conjugate(random_unimodular(rng, n), n_of(Partition(list(lam)))), p, top)
        # the block is (n-1) x (n-1): every candidate of its levels 1..top, once
        assert calls == [(range(1, top + 1), sum(_totals(n - 1, p, top)[1:]))]


@pytest.mark.parametrize("a, p, top", [
    *[(diag(*[c] * n), p, top) for n, p, top in _WORKLOADS.DENSE_CASES for c in (0, 74149)],
    (diag(-2 ** 70), 5, 6),
    (diag(-2 ** 70, -2 ** 70, -2 ** 70), 3, 3),
    (diag(0), 2, 0),
    (diag(9, 9, 9), 2, 0),
    (diag(4), 7, 5),
    # cI + p^E X, with p^E = 2^5
    (IntMatrix(((9 + 32, 64), (-96, 9))), 2, 5),
])
def test_scalar_peel_counts_every_sublattice_without_enumerating(a, p, top, monkeypatch):
    want = _hnf_values(a, p, top)
    monkeypatch.setattr(oracle, "count_at_exponent", _refuse)
    monkeypatch.setattr(oracle, "_minor_gcds", _refuse)
    got = count_invariant_sublattices(a, p, top)
    assert got == want == tuple(_totals(a.n_rows, p, top))


@pytest.mark.parametrize("a", [diag(0), diag(7, 7), diag(-3, -3, -3)])
def test_scalar_peel_still_refuses_a_count_over_budget(a, monkeypatch):
    totals = _totals(a.n_rows, 2, 6)
    monkeypatch.setattr(oracle, "_peeled", _refuse)
    with pytest.raises(BudgetError, match="up to level 6"):
        count_invariant_sublattices(a, 2, 6, max_candidates=sum(totals) - 1)
    monkeypatch.undo()
    assert count_invariant_sublattices(a, 2, 6, max_candidates=sum(totals)) == tuple(totals)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_peel_rejects_a_diagonal_entry_that_is_not_a_power_of_p(position, monkeypatch):
    hnf = oracle.count_at_exponent

    def corrupted(a, p, levels, nodes):
        out = hnf(a, p, levels, nodes)
        nodes[-1][-1, position, position] *= 3
        return out

    monkeypatch.setattr(oracle, "count_at_exponent", corrupted)
    # the levels are read before any minor is expanded
    monkeypatch.setattr(oracle, "_minor_gcds", _refuse)
    with pytest.raises(RuntimeError, match="not a power of p"):
        count_invariant_sublattices(n_of(Partition([2, 1, 1])), 2, 3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: _square(n, st.integers(-4, 4))),
    st.sampled_from([2, 3, 5]),
    st.randoms(use_true_random=False),
)
def test_counts_are_invariant_under_random_unimodular_conjugation(rows, p, rng):
    a = IntMatrix(rows)
    assume(oracle._triangular(a) is a)
    top = {1: 4, 2: 3, 3: 2}[a.n_rows]
    conj = _conjugate(random_unimodular(rng, a.n_rows), a)
    assert count_invariant_sublattices(conj, p, top) == \
        count_invariant_sublattices(a, p, top)


def test_cost_rule_sends_sparse_levels_to_the_tree(monkeypatch):
    a = companion(IntPoly((1, 0, 1)))
    assert _recorded_hnf_levels(monkeypatch, a, 89, 4) == [(1, True)]


def test_cost_rule_keeps_dense_levels_on_hnf(monkeypatch):
    # every sublattice is invariant: HNF enumeration produces every level,
    # and the nodes stop being kept after level 1, where expanding that
    # level alone would cost at least the candidates of levels 2-10
    got = _recorded_hnf_levels(monkeypatch, diag(0, 0), 2, 10)
    assert got == [(e, e <= 1) for e in range(1, 11)]


def test_cost_rule_enumerates_the_top_of_a_dense_nilpotent(monkeypatch):
    # a conjugate of the nilpotent of type (2, 1, 1), as the verify-dense
    # workload draws it: at p = 2 its level 5 holds 4355 of 97155 candidates,
    # and the tree would build about three children for each of them
    a = IntMatrix([[1, 0, 0, 1], [3, 0, 0, 3], [1, 0, 0, 1], [-1, 0, 0, -1]])
    got = _recorded_hnf_levels(monkeypatch, a, 2, 5)
    assert [e for e, _ in got] == [1, 2, 3, 4, 5]
    assert got[-1] == (5, False)
    assert _level_loop(a, 2, 5) == (1, 7, 43, 211, 995, 4355)
    assert count_invariant_sublattices(a, 2, 5) == (1, 7, 43, 211, 995, 4355)


def test_cost_rule_gives_up_on_a_dense_count_that_reaches_the_level_loop(monkeypatch):
    # its first column stays nonzero below the diagonal, so it is not
    # peeled; the nodes of level 1 are kept, and no tree level reads them
    a = IntMatrix([[9, 16, -8], [24, 25, -16], [16, 8, 9]])
    assert count_invariant_sublattices(a, 2, 6) == (1, 7, 35, 155, 267, 555, 811)
    got = _recorded_hnf_levels(monkeypatch, a, 2, 6, count_invariant_sublattices)
    assert got == [(e, e <= 1) for e in range(1, 7)]


def test_cost_rule_hands_the_top_levels_of_a_shifted_count_to_the_tree(monkeypatch):
    # twice a matrix whose first column is nonzero below the diagonal: HNF
    # enumeration produces levels 1-7, keeping their nodes, and the tree 8-9
    a = IntMatrix([[0, 0, 6], [-4, -8, 4], [-6, 2, -2]])
    want = (1, 7, 11, 23, 27, 39, 43, 55, 59, 71)
    produced = []
    produce = _LatticeTree.produce

    def producing(self, e):
        produced.append(e)
        return produce(self, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_LatticeTree, "produce", producing)
        got = _recorded_hnf_levels(mp, a, 2, 9, count_invariant_sublattices)
    assert got == [(e, True) for e in range(1, 8)]
    assert produced == [8, 9]
    assert count_invariant_sublattices(a, 2, 9) == want
    _forced(monkeypatch, False)
    assert _level_loop(a, 2, 9) == want


def test_no_nodes_are_kept_for_the_top_level(monkeypatch):
    # the tree keeps the nodes of levels 1-2 and gives up after level 2;
    # no later level would expand those of level 5 in any case
    got = _recorded_hnf_levels(monkeypatch, n_of(Partition([3])), 2, 5)
    assert got == [(1, True), (2, True), (3, False), (4, False), (5, False)]


def test_tree_cost_charges_node_factor_pairs_and_expected_children(monkeypatch):
    for a, p, counts, degrees in ((n_of(Partition([2, 1])), 2, [1, 3, 11], [1]),
                                  (companion(IntPoly((1, 0, 1))), 3, [1, 0, 1], [2]),
                                  (companion(IntPoly((1, 0, 1))), 5, [1, 2, 3], [1, 1])):
        n = a.n_rows
        tree = _LatticeTree(a, p, _totals(n, p, 5))
        assert [d for d, _ in tree.factors] == degrees
        for e in (1, 2):
            nodes = []
            count_at_exponent(a, p, range(e, e + 1), nodes)
            tree.record(e, nodes)
        assert tree.counts == counts
        # the children expected are the last count times its growth
        children = oracle._TREE_CHILD * (counts[2] ** 2 // max(1, counts[1]))
        assert tree._cost(7) == oracle._TREE_NODE * 7 + children
        # level 3 expands level 3 - d once per factor of degree d
        pairs = sum(counts[3 - d] for d in degrees)
        with monkeypatch.context() as mp:
            seen = []
            mp.setattr(_LatticeTree, "_cost", lambda self, nodes: seen.append(nodes) or 0)
            assert tree.cheaper(3)
        assert seen == [pairs]


def _forced(monkeypatch, tree):
    """Make every level come from the tree (kept to the end), or every one from HNF."""
    produced = []
    produce = _LatticeTree.produce

    def producing(self, e):
        produced.append(e)
        return produce(self, e)

    def keep_to_the_end(self, e):
        for l in [l for l in self.levels if l <= e - self.n]:
            del self.levels[l]

    monkeypatch.setattr(_LatticeTree, "cheaper", lambda self, e: tree)
    monkeypatch.setattr(_LatticeTree, "produce", producing)
    if tree:
        monkeypatch.setattr(_LatticeTree, "prune", keep_to_the_end)
    return produced


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: _square(
        n, st.one_of(st.integers(-4, 4), st.integers(-10 ** 20, 10 ** 20)))),
    st.sampled_from([2, 3, 5]),
)
def test_either_producer_at_every_level_gives_the_default_counts(rows, p):
    a = IntMatrix(rows)
    top = {1: 6, 2: 4, 3: 3}[a.n_rows]
    want = count_invariant_sublattices(a, p, top)
    for tree in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            produced = _forced(mp, tree)
            assert _level_loop(a, p, top) == want
        assert produced == (list(range(1, top + 1)) if tree else [])


@st.composite
def _shifted_counts(draw):
    """(cI + p^k*B, p, E): n = 2-4, p <= 5, k < E and at most 10^5 candidates,
    the counts where the level loop can switch producers between levels."""
    n = draw(st.integers(2, 4))
    p = draw(st.sampled_from([2, 3, 5]))
    top = draw(st.sampled_from([e for e in range(1, 13) if sum(_totals(n, p, e)) <= 10 ** 5]))
    k = draw(st.integers(0, top - 1))
    c = draw(st.integers(-9, 9))
    b = draw(_square(n, st.integers(-9, 9)))
    a = IntMatrix([[c * (i == j) + p ** k * x for j, x in enumerate(row)]
                   for i, row in enumerate(b)])
    return a, p, top


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_shifted_counts(), st.randoms(use_true_random=False))
def test_shifted_counts_match_hnf_levels_and_unimodular_conjugates(case, rng):
    a, p, top = case
    want = count_invariant_sublattices(a, p, top)
    conj = _conjugate(random_unimodular(rng, a.n_rows), a)
    assert count_invariant_sublattices(conj, p, top) == want
    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, False)
        assert _level_loop(a, p, top) == want


def test_upper_hnf_reduction_matches_linalg_hnf():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        factors = []
        for _ in range(2):
            d = [p ** rng.randint(0, 2) for _ in range(n)]
            factors.append(IntMatrix(tuple(
                tuple(d[i] if i == j else rng.randint(0, 3 * p) if j > i else 0
                      for j in range(n))
                for i in range(n))))
        prod = factors[0] * factors[1]
        det = 1
        for i in range(n):
            det *= prod.entries[i][i]
        assert IntMatrix(_hnf(prod.entries, det)) == hnf(prod)


def test_hyperplanes_of_a_scalar_node_count_the_subspaces():
    # below Z^n the zero matrix has N0 = pZ^n, so the root's children are the
    # hyperplanes of F_p^n, (p^n - 1)/(p - 1) of them, and the children of
    # level 1 reach every sublattice of level 2
    for n, p, want in ((3, 2, [7, 35]), (4, 3, [40, 1210])):
        tree = _LatticeTree(IntMatrix([[0] * n for _ in range(n)]), p, _totals(n, p, 3))
        assert [tree.produce(e) for e in (1, 2)] == want == _totals(n, p, 2)[1:]


def test_compositions_and_count_at_exponent_reject_bad_input():
    with pytest.raises(ValueError):
        list(compositions(2, 0))
    with pytest.raises(ValueError):
        count_at_exponent(IntMatrix(((0, 1, 0), (0, 0, 1))), 2, range(1, 2))
