import importlib.util
import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest
import sympy.core.random
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_mul
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from submodzeta import oracle
from submodzeta.canonical import edv_context
from submodzeta.cli import main
from submodzeta.linalg import IntMatrix, distinct_degree, resultant
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
    chosen = oracle._hnf_dtype

    def recording(*args):
        dtypes.append(chosen(*args))
        return dtypes[-1]

    monkeypatch.setattr(oracle, "_hnf_dtype", recording)
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


def _bases_of(diag):
    """The number of HNF bases of a diagonal d: prod_j d_j^j."""
    size = 1
    for j, d in enumerate(diag):
        size *= d ** j
    return size


def _composition_total(n, p, e):
    """The candidate total of level e by definition: the sum over its diagonals."""
    return sum(_bases_of(tuple(p ** x for x in comp)) for comp in compositions(e, n))


def test_candidate_total_matches_the_composition_sum():
    for n in range(1, 6):
        for p in (2, 3, 5, 7):
            for e in range(9):
                assert _totals(n, p, e)[e] == _composition_total(n, p, e), (n, p, e)


def _stacked(batches, dtype):
    return [_stack(b, np.arange(size), dtype) for b, size in batches]


def _mixed_radix_bases(n, diags):
    """The bases of diags by a pure-Python loop: per diagonal, the upper
    positions (i, j) with diag[j] > 1 over [0, diag[j]) in mixed radix, the
    last position fastest."""
    out = []
    for diag in diags:
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if diag[j] > 1]
        for values in itertools.product(*(range(diag[j]) for _, j in free)):
            rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(rows)
    return out


def _checked_batches(n, diags, dtype, size):
    """The batches of diags, checked: the mixed-radix bases in order, at most
    `size` at a time, each entry an int exactly where the bases of its batch
    agree and otherwise an array of the batch's size, and Python ints in
    dtype object.  Returns the batches and their bases stacked."""
    batches = list(_batches(n, diags, dtype))
    stacked = _stacked(batches, dtype)
    assert all(0 < k <= size for _, k in batches)
    for (b, k), bases in zip(batches, stacked):
        for i in range(n):
            for j in range(n):
                constant = bool((bases[:, i, j] == bases[0, i, j]).all())
                assert isinstance(b[i][j], int) == constant, (diags, size, i, j)
                assert constant or b[i][j].shape == (k,)
    got = np.concatenate(stacked)
    assert got.tolist() == _mixed_radix_bases(n, diags)
    if dtype is object:
        assert all(type(x) is int for x in got.ravel())
    return batches, stacked


@pytest.mark.parametrize("n, p, e", [(2, 2, 4), (2, 5, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2),
                                     (4, 2, 2)])
def test_packed_levels_yield_the_per_diagonal_bases_in_order(n, p, e, monkeypatch):
    diags = [tuple(p ** x for x in comp) for comp in compositions(e, n)]
    reference = np.array([b.entries for b in _hnf_bases(n, p, e)]).tolist()
    for dtype in (np.int64, object):
        for size in (1, 5, 7, 1 << 14):
            _batch_size(monkeypatch, size)
            _, stacked = _checked_batches(n, diags, dtype, size)
            assert np.concatenate(stacked).tolist() == reference


@pytest.mark.parametrize("diag, size", [
    ((1, 27), 5),           # one position, runs of 5 values from 0, 5, ..., 25
    ((1, 1, 8), 5),         # the last position in runs of 5, 3 under each prefix
    ((1, 1, 8), 16),        # the last position whole, the one before in runs of 2
    ((1, 2, 4), 3),
    ((1, 3, 9), 20),        # runs of 2 values of 9: the last run is one value
    ((1, 1, 2, 8), 50),     # the last position whole, the one before in runs of 6
    ((2, 4, 8), 7),
    ((1, 2, 128), 1 << 14),  # the default size: (0, 1) is 0, then 1, in each batch
])
def test_split_diagonals_yield_the_mixed_radix_bases_in_order(diag, size, monkeypatch):
    n = len(diag)
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if diag[j] > 1]
    # the longest tail of positions that fits in a batch runs in full, the
    # head position before it in stretches of consecutive values, and the
    # positions before the head are fixed in each batch
    cut, tail = len(free) - 1, 1
    while tail * diag[free[cut][1]] <= size:
        tail *= diag[free[cut][1]]
        cut -= 1
    head = free[cut]
    _batch_size(monkeypatch, size)
    for dtype in (np.int64, object):
        batches, stacked = _checked_batches(n, [diag], dtype, size)
        assert len(batches) > 1
        for (b, k), bases in zip(batches, stacked):
            assert k % tail == 0
            assert all(isinstance(b[i][j], int) for i, j in free[:cut])
            heads = bases[::tail, head[0], head[1]].tolist()
            assert heads == list(range(heads[0], heads[0] + len(heads)))
        # some stretch of the head position starts past 0
        assert any(bases[0, head[0], head[1]] > 0 for bases in stacked)


def test_packed_batches_hold_at_most_the_pack_size():
    # diagonals of 2*_PACK, _PACK, _PACK/2, ..., 1 bases: the first alone,
    # the second filling a packed batch, and all the rest together
    top = _PACK.bit_length()
    diags = [(2 ** x, 2 ** (top - x)) for x in range(top + 1)]
    sizes = [size for _, size in _batches(2, diags, np.int64)]
    assert sizes == [2 * _PACK, _PACK, _PACK - 1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.sampled_from([2, 3, 5]).flatmap(lambda p: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).map(lambda exps: tuple(p ** x for x in exps))
        .filter(lambda diag: _bases_of(diag) <= 1000), min_size=1, max_size=6)),
    st.one_of(st.integers(1, 64), st.none()),
    st.sampled_from([np.int64, object]))))
def test_batches_of_any_diagonals_are_their_mixed_radix_bases(case):
    # size None keeps the default _BATCH and _PACK
    diags, size, dtype = case
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            _batch_size(mp, size)
        _checked_batches(len(diags[0]), diags, dtype, oracle._BATCH)


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


# I mod 3: x - 1 is the one factor of its characteristic polynomial mod 3,
# and all 13 lines of F_3^3 are invariant
_I_MOD_3 = IntMatrix(((1, 3, 0), (3, 4, 3), (0, 3, 4)))


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


def test_random_5x5_and_6x6_counts_survive_unimodular_conjugation_in_time(monkeypatch):
    """60 dense draws, entries in [-9, 9], each (n, p, E) five times: the
    counts of A and of a unimodular conjugate agree, and the tree produces
    most of their levels."""
    rng = random.Random(9)
    produced = _produced_levels(monkeypatch)
    cases = [(7, 3), (5, 3), (3, 4), (2, 5), (11, 2), (2, 6)]
    slowest, levels = 0.0, 0
    for k in range(60):
        n, (p, top) = 5 + k % 2, cases[k // 2 % 6]
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        counts, seconds = _timed_count(a, p, top)
        conj, conj_seconds = _timed_count(_conjugate(random_unimodular(rng, n), a), p, top)
        assert conj == counts, (a.entries, p, top)
        slowest = max(slowest, seconds, conj_seconds)
        levels += 2 * top
    # 0.02-0.06 s at worst on one CPU; level 3 of Z^6 at p = 7 alone holds
    # 5.7*10^12 HNF candidates
    assert slowest < 1.0
    assert 2 * len(produced) > levels


def test_x2_plus_1_at_89_runs_past_the_int64_bound_in_time():
    # (n*p^E)^2 >= 2^62 switched the old tree off, and HNF enumeration of
    # 5.7*10^9 candidates ran for minutes; the tree builds two children a node
    start = time.perf_counter()
    assert count_invariant_sublattices(companion(IntPoly((1, 0, 1))), 89, 5,
                                       max_candidates=10 ** 10) == (1, 2, 3, 4, 5, 6)
    assert time.perf_counter() - start < 0.5


def test_counts_leave_the_global_random_state_alone():
    # x^2+1 at p = 13: chi splits into two linear factors mod 13, so the
    # equal-degree step runs, and the tree produces levels 4-5.  That step
    # is deterministic: it draws from neither `random` nor sympy's generator
    state, sympy_state = random.getstate(), sympy.core.random.rng.getstate()
    assert count_invariant_sublattices(companion(IntPoly((1, 0, 1))), 13, 5) == (1, 2, 3, 4, 5, 6)
    assert random.getstate() == state
    assert sympy.core.random.rng.getstate() == sympy_state


def test_tree_factors_do_not_depend_on_the_sympy_seed():
    a = companion(IntPoly((1, 0, 1)))
    state = sympy.core.random.rng.getstate()
    factors = []
    try:
        for seed in (0, 1):
            sympy.core.random.seed(seed)
            seeded, global_state = sympy.core.random.rng.getstate(), random.getstate()
            factors.append(_LatticeTree(a, 13, _totals(2, 13, 5)).factors)
            assert sympy.core.random.rng.getstate() == seeded
            assert random.getstate() == global_state
    finally:
        sympy.core.random.rng.setstate(state)
    assert factors[0] == factors[1]
    assert [d for d, _ in factors[0]] == [1, 1]


def test_equal_degree_splits_into_sympys_factors():
    """The kernel's parts split by _equal_degree give gf_factor's distinct
    irreducible factors: 700 seeded products of 1-4 random monic factors of
    one degree d in 1-3, some repeated, 100 at each p in {2, 3, 5, 7, 13, 89,
    10007}; so p = 2 takes the trace map at d = 2 and 3."""
    rng = random.Random(38)
    split = 0
    for p in (2, 3, 5, 7, 13, 89, 10007):
        for _ in range(100):
            d = rng.randint(1, 3)
            f = [1]
            for _ in range(rng.randint(1, 4)):
                g = [1] + [rng.randrange(p) for _ in range(d)]
                f = gf_mul(f, gf_mul(g, g, p, ZZ) if rng.random() < 0.2 else g, p, ZZ)
            coeffs = [int(c) for c in reversed(f)]
            ours = sorted(g for e, part in distinct_degree(coeffs, p)
                          for g in oracle._equal_degree(part, e, p))
            want = sorted([int(c) for c in reversed(g)] for g, _ in gf_factor(f, p, ZZ)[1])
            assert ours == want, (p, coeffs)
            split += any(len(part) - 1 > e for e, part in distinct_degree(coeffs, p))
    assert split > 400


def _tree_against_hnf(a, p, top):
    """The tree's levels 1..top, each expanded from the ones before, against
    HNF enumeration of that level alone: the same invariant bases."""
    tree = _LatticeTree(a, p, _totals(a.n_rows, p, top))
    counts = [1]
    for e in range(1, top + 1):
        nodes = []
        count = count_at_exponent(a, p, range(e, e + 1), nodes)[0]
        assert tree.produce(e) == count
        hnf_bases = {tuple(map(tuple, b)) for batch in nodes for b in batch.tolist()}
        assert set(tree.levels[e]) == hnf_bases
        counts.append(count)
    return tree, counts


def test_tree_matches_hnf_where_chi_has_two_quadratic_factors_mod_3():
    # chi = (x^2 + 1)(x^2 + x + 2), both irreducible mod 3: the kernel yields
    # one part of degree 4 at d = 2, which the equal-degree step splits
    rng = random.Random(3)
    f = IntPoly((1, 0, 1)) * IntPoly((2, 1, 1))
    for a in (companion(f), _conjugate(random_unimodular(rng, 4), companion(f))):
        tree, counts = _tree_against_hnf(a, 3, 4)
        assert [d for d, _ in tree.factors] == [2, 2]
        assert counts == [1, 0, 2, 0, 3]


def test_tree_matches_hnf_at_2_with_a_repeated_factor():
    # chi = x(x + 1)^2 mod 2, from x(x + 1)^2 and x(x^2 + 2x + 3): the part
    # x(x + 1) is split by the trace map, and x + 1, a double root (chi' =
    # 3x^2 + 4x + 1 is 8 at 1), has its lines counted through N0; then
    # (x^2 + x + 1)^2, and a block sum of the first and x^2 + x + 1
    rng = random.Random(2)
    for f in (IntPoly((0, 1, 2, 1)), IntPoly((1, 1, 1)) ** 2, IntPoly((0, 3, 2, 1))):
        a = _conjugate(random_unimodular(rng, f.degree), companion(f))
        tree, counts = _tree_against_hnf(a, 2, 5)
        assert tree.lines == counts[1]
    b = block_diag(companion(IntPoly((0, 1, 2, 1))), companion(IntPoly((1, 1, 1))))
    tree, counts = _tree_against_hnf(_conjugate(random_unimodular(rng, 5), b), 2, 3)
    assert sorted(d for d, _ in tree.factors) == [1, 1, 2]
    assert tree.lines == counts[1]


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
    # through the level loop, where I mod 3 keeps level 1 on HNF (its 13
    # candidates are all invariant), and through the peel's enumeration of
    # its block, which a nilpotent still takes (a scalar matrix enumerates
    # nothing)
    for a, message in ((_I_MOD_3, "oracle visited 0 candidates at p = 3, e = 1..1;"),
                       (IntMatrix(((0, 1), (0, 0))), "oracle visited")):
        with pytest.raises(RuntimeError, match=message):
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
    # a scalar matrix has N = 0, its own triangular conjugate; counts
    # decide scalars before they reach _triangular
    zero = diag(*[0] * a.n_rows)
    t = oracle._triangular(a)
    assert t == zero if plus_scalar(a, -a.entries[0][0]) == zero else t is a


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
    # every one comes back without c, and only a scalar matrix as T = 0
    assert _is_strictly_upper(t)
    assert any(map(any, t.entries)) == (max(lam.parts) > 1)
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


def _scalar_mod(a, q):
    """Is A = cI mod q for an integer c?"""
    return all(x % q == 0 for row in plus_scalar(a, -a.entries[0][0]).entries for x in row)


def _peeled_and_looped(monkeypatch, a, p, top, **limits):
    """The counts of count_invariant_sublattices and of the level loop, and
    whether the count took the peel, at most once."""
    calls = []
    peel = oracle._peeled

    def spy(*args):
        calls.append(args)
        return peel(*args)

    monkeypatch.setattr(oracle, "_peeled", spy)
    got = count_invariant_sublattices(a, p, top, **limits)
    assert len(calls) <= 1
    return got, _level_loop(a, p, top), bool(calls)


@pytest.mark.parametrize("n, p, top", _WORKLOADS.DENSE_CASES)
def test_peel_matches_the_level_loop_on_every_verify_dense_class(n, p, top, monkeypatch):
    rng = random.Random(100 * n + 10 * p + top)
    matrices = [diag(*[0] * n), diag(*[74149] * n)]
    for lam in _WORKLOADS.NILPOTENT_TYPES[n]:
        matrices.append(_conjugate(random_unimodular(rng, n), n_of(Partition(list(lam)))))
    for k, a in enumerate(matrices):
        got, want, peeled = _peeled_and_looped(monkeypatch, a, p, top)
        assert got == want, (a.entries, p, top)
        # the zero and scalar matrices count as the candidate totals, unpeeled
        assert peeled == (k >= 2)


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
    got, want, peeled = _peeled_and_looped(monkeypatch, a, p, top)
    assert got == want
    # every 1 x 1 matrix, and every matrix at E = 0, is scalar mod p^E
    assert not peeled
    # Z has one sublattice of each index, and level 0 holds Z^n alone
    assert got == ((1,) * (top + 1) if a.n_rows == 1 else (1,))


def test_peel_matches_the_level_loop_on_a_5x5_nilpotent(monkeypatch):
    a = _conjugate(random_unimodular(random.Random(5), 5), n_of(Partition([3, 2])))
    got, want, peeled = _peeled_and_looped(monkeypatch, a, 2, 3, max_n=5)
    assert got == want and peeled


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
        got, want, peeled = _peeled_and_looped(mp, a, p, top)
    assert got == want
    # a first column zero below the diagonal, or one eigenvalue, is peeled
    # unless the matrix is scalar mod p^E
    assert peeled != _scalar_mod(a, p ** top)


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
    # them Python integers past it.  t = 2^61 at E = 61 is the zero matrix
    # mod 2^E, which counts as the candidate totals without the peel.
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
    raise AssertionError("this count must not reach this step")


def _refuse_every_step(monkeypatch):
    """Make every step after the budget raise: the triangular conjugate, the
    peel and its minors, and both producers."""
    for name in ("_triangular", "_peeled", "_minor_gcds", "count_at_exponent", "_LatticeTree"):
        monkeypatch.setattr(oracle, name, _refuse)


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
    _refuse_every_step(monkeypatch)
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


@st.composite
def _scalar_mod_p_to_the_e(draw):
    """(cI + p^E*X, p, E): n <= 4, p <= 7, E <= 5, |c| <= 2^70 and X in
    [-9, 9]; or a 1 x 1 matrix, any entry up to 2^70, at E <= 60."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70)))
    if draw(st.booleans()):
        return diag(c), p, draw(st.integers(0, 60))
    top = draw(st.integers(0, 5))
    x = draw(st.integers(1, 4).flatmap(lambda n: _square(n, st.integers(-9, 9))))
    return IntMatrix([[c * (i == j) + p ** top * v for j, v in enumerate(row)]
                      for i, row in enumerate(x)]), p, top


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_scalar_mod_p_to_the_e())
# 9I + 2^5*X: scalar mod 2^5, not in its entries
@example((IntMatrix(((41, 64), (-96, 9))), 2, 5))
@example((diag(2 ** 70 + 1), 2, 6))
def test_scalar_mod_p_to_the_e_counts_as_the_candidate_totals_alone(case):
    """A = cI mod p^E counts as the candidate totals that the budget reads,
    with no conjugate, peel or producer; HNF enumeration agrees where the
    totals stay small."""
    a, p, top = case
    totals = _totals(a.n_rows, p, top)
    if sum(totals) <= 1500:
        assert _hnf_values(a, p, top) == tuple(totals)
    with pytest.MonkeyPatch.context() as mp:
        _refuse_every_step(mp)
        assert count_invariant_sublattices(a, p, top, max_candidates=sum(totals)) == tuple(totals)


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
    # level 1 too: its two children cost less than one HNF level's fixed cost
    a = companion(IntPoly((1, 0, 1)))
    produced = _produced_levels(monkeypatch)
    assert _recorded_hnf_levels(monkeypatch, a, 89, 4) == []
    assert produced == [1, 2, 3, 4]


def test_cost_rule_keeps_dense_levels_on_hnf(monkeypatch):
    # every sublattice is invariant: the tree builds the three lines of
    # level 1 for less than one HNF level, and HNF enumeration produces
    # levels 2-10; the nodes stop being kept after level 4, where expanding
    # that level alone would cost at least HNF enumeration of levels 5-10
    produced = _produced_levels(monkeypatch)
    got = _recorded_hnf_levels(monkeypatch, diag(0, 0), 2, 10)
    assert produced == [1]
    assert got == [(e, e <= 4) for e in range(2, 11)]


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


def test_cost_rule_hands_the_top_level_of_a_shifted_count_to_the_tree(monkeypatch):
    # twice a matrix whose first column is nonzero below the diagonal: HNF
    # enumeration produces levels 1-8, keeping their nodes, and the tree 9
    a = IntMatrix([[0, 0, 6], [-4, -8, 4], [-6, 2, -2]])
    want = (1, 7, 11, 23, 27, 39, 43, 55, 59, 71)
    with pytest.MonkeyPatch.context() as mp:
        produced = _produced_levels(mp)
        got = _recorded_hnf_levels(mp, a, 2, 9, count_invariant_sublattices)
    assert got == [(e, True) for e in range(1, 9)]
    assert produced == [9]
    assert count_invariant_sublattices(a, 2, 9) == want
    _forced(monkeypatch, False)
    assert _level_loop(a, 2, 9) == want


def test_no_nodes_are_kept_for_the_top_level(monkeypatch):
    # the tree produces levels 1-2 and keeps the nodes of HNF level 3, and
    # still keeps at level 4; no later level would expand those of the top
    produced = _produced_levels(monkeypatch)
    got = _recorded_hnf_levels(monkeypatch, n_of(Partition([3])), 2, 4)
    assert produced == [1, 2]
    assert got == [(3, True), (4, False)]


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
        # past level 1 the children expected are the last count times its
        # growth; at level 1 they are the lines, as many as level 1 holds
        children = oracle._TREE_CHILD * (counts[2] ** 2 // max(1, counts[1]))
        assert tree._cost(7, 3) == oracle._TREE_NODE * 7 + children
        assert tree._cost(7, 1) == oracle._TREE_NODE * 7 + oracle._TREE_CHILD * counts[1]
        # level 3 expands level 3 - d once per factor of degree d, against
        # HNF's candidate total and fixed cost
        pairs = sum(counts[3 - d] for d in degrees)
        with monkeypatch.context() as mp:
            seen = []
            mp.setattr(_LatticeTree, "_cost",
                       lambda self, nodes, e: seen.append((nodes, e)) or tree.totals[3]
                       + oracle._HNF_LEVEL - 1)
            assert tree.cheaper(3)
            mp.setattr(_LatticeTree, "_cost",
                       lambda self, nodes, e: tree.totals[3] + oracle._HNF_LEVEL)
            assert not tree.cheaper(3)
        assert seen == [(pairs, 3)]


def _produced_levels(monkeypatch):
    """The levels the tree produces from now on, in order."""
    produced = []
    produce = _LatticeTree.produce

    def producing(self, e):
        produced.append(e)
        return produce(self, e)

    monkeypatch.setattr(_LatticeTree, "produce", producing)
    return produced


def _forced(monkeypatch, tree):
    """Make every level come from the tree (kept to the end), or every one from HNF."""
    def keep_to_the_end(self, e):
        for l in [l for l in self.levels if l <= e - self.n]:
            del self.levels[l]

    produced = _produced_levels(monkeypatch)
    monkeypatch.setattr(_LatticeTree, "cheaper", lambda self, e: tree)
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


def test_level_1_is_costed_with_its_exact_children(monkeypatch):
    # x^2 + 1 splits mod 13: its two lines cost the tree less than HNF's
    # fixed cost, so the tree produces level 1
    x2_plus_1 = _LatticeTree(companion(IntPoly((1, 0, 1))), 13, _totals(2, 13, 5))
    assert x2_plus_1.lines == 2
    with pytest.MonkeyPatch.context() as mp:
        produced = _produced_levels(mp)
        assert count_invariant_sublattices(companion(IntPoly((1, 0, 1))), 13, 5) == \
            (1, 2, 3, 4, 5, 6)
    assert produced[0] == 1
    # I mod 3 has one factor, x - 1, whose N0 is 3Z^3: the 13 lines of
    # F_3^3, where the growth estimate would read 1; they cost more than
    # HNF's 13 candidates and fixed cost, so HNF enumeration keeps level 1
    tree = _LatticeTree(_I_MOD_3, 3, _totals(3, 3, 4))
    assert tree.lines == 13
    charged = []
    cost = _LatticeTree._cost
    monkeypatch.setattr(_LatticeTree, "_cost",
                        lambda self, nodes, e: charged.append(cost(self, nodes, e)) or charged[-1])
    assert not tree.cheaper(1)
    assert charged == [oracle._TREE_NODE + 13 * oracle._TREE_CHILD]
    assert tree.produce(1) == 13
    want = (1, 13, 13, 40, 13)
    assert count_invariant_sublattices(_I_MOD_3, 3, 4) == want
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            _forced(mp, forced)
            assert _level_loop(_I_MOD_3, 3, 4) == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_shifted_counts())
def test_level_1_lines_are_the_level_1_count(case):
    # a factor of multiplicity m > 1 may have k anywhere in 1..m
    a, p, _ = case
    tree = _LatticeTree(a, p, _totals(a.n_rows, p, 2))
    assert tree.lines == count_at_exponent(a, p, range(1, 2))[0]


# x^2 + 1 and the four irreducible cubics of the verify-sparse benchmark,
# lowest coefficient first, with their discriminants
_SPARSE_POLYS = [((1, 0, 1), -4), ((-1, -1, 0, 1), -23), ((-2, 0, 0, 1), -108),
                 ((1, 1, 0, 1), -31), ((1, 2, 0, 1), -59)]


def _dedekind_counts(f, p, top):
    """The ideals of index p^e, e <= top, of Z[x]/(f) for a prime p not
    dividing the discriminant: the residue degrees of the places above p
    are read off the roots of f mod p."""
    roots = sum(1 for x in range(p) if sum(c * x ** k for k, c in enumerate(f)) % p == 0)
    degrees = {(2, 0): [2], (2, 2): [1, 1],
               (3, 0): [3], (3, 1): [1, 2], (3, 3): [1, 1, 1]}[len(f) - 1, roots]
    coeffs = [1] + [0] * top
    for d in degrees:
        for i in range(d, top + 1):
            coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


def _sparse_case(f, p, top, rng):
    """(f, p, E, A), A a unimodular conjugate of the companion matrix of f."""
    u = random_unimodular(rng, len(f) - 1)
    return f, p, top, _conjugate(u, companion(IntPoly(f)))


@st.composite
def _sparse_counts(draw):
    """A sparse case at a good prime among those of the benchmark, E <= 4,
    with at most 3*10^5 HNF candidates."""
    f, disc = draw(st.sampled_from(_SPARSE_POLYS))
    p = draw(st.sampled_from([q for q in (7, 11, 13, 17, 19, 23) if disc % q]))
    n = len(f) - 1
    top = draw(st.sampled_from([e for e in range(1, 5) if sum(_totals(n, p, e)) <= 3 * 10 ** 5]))
    return _sparse_case(f, p, top, draw(st.randoms(use_true_random=False)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_sparse_counts())
# the benchmark's split and inert x^2 + 1 and its cubics at p = 7 and 19
@example(_sparse_case((1, 0, 1), 13, 4, random.Random(1)))
@example(_sparse_case((1, 0, 1), 23, 4, random.Random(1)))
@example(_sparse_case((-1, -1, 0, 1), 7, 3, random.Random(1)))
@example(_sparse_case((1, 2, 0, 1), 19, 2, random.Random(1)))
def test_sparse_classes_match_the_dedekind_form_and_hnf_levels(case):
    f, p, top, a = case
    want = _dedekind_counts(f, p, top)
    assert count_invariant_sublattices(a, p, top) == want
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
