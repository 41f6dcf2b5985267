"""Brute-force ground truth: count invariant sublattices by HNF enumeration.

A finite-index sublattice of Z^n has a unique basis in row Hermite normal
form: upper triangular, positive diagonal d_0..d_{n-1}, and the entries
above each pivot reduced into [0, d_j).  The sublattice is invariant under
the row action of A exactly when B*A = M*B for an integer matrix M, which
forward substitution against the triangular B decides in pure integer
arithmetic.  Enumerating all HNF bases of determinant p^e and counting the
invariant ones gives the exact Dirichlet coefficient a_{p^e}, the number
the symbolic formulas must reproduce.

One vectorized enumerator serves every matrix; the dtype of the numpy
array it is handed decides the arithmetic.  int64 is used whenever a
rigorous worst-case bound keeps every intermediate below 2^62, and Python
integers (dtype object) otherwise.  Candidates are visited in one fixed
order (compositions of e in ascending lexicographic order, then mixed-radix
over the off-diagonal residues), and the rows each chunk decodes are counted
as visits, which are checked against the closed-form candidate total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from .canonical import EdvContext, edv_context
from .linalg import IntMatrix
from .zetacore import (
    DirichletCoefficients,
    RamifiedPrimeError,
    dirichlet_coefficients,
    generic_local_factor,
    is_good_prime,
)

DEFAULT_MAX_N = 4
DEFAULT_MAX_CANDIDATES = 120_000_000

_INT64_SAFE = 1 << 62


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the configured work budget."""


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex."""
    assert parts >= 1
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def candidate_total(n: int, p: int, e: int) -> int:
    """Number of HNF candidates of determinant p^e: sum over compositions of prod p^(j*e_j)."""
    return sum(
        _composition_size(tuple(p ** ej for ej in comp))
        for comp in compositions(e, n)
    )


def _composition_size(diag) -> int:
    size = 1
    for j, dj in enumerate(diag):
        size *= dj ** j
    return size


def _int64_bound(n: int, p: int, e: int, abs_max: int) -> int:
    """Worst-case magnitude through decode, B*A, and forward substitution."""
    return 4 * (2 ** n) * n * max(1, abs_max) * (p ** e) ** n


def _count_numpy(a_np, n, diag, chunk):
    """Vectorized enumeration for one diagonal composition, in a_np's dtype."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = _composition_size(diag)
    count = 0
    visits = 0
    start = 0
    while start < total:
        m_size = min(chunk, total - start)
        idx = np.arange(start, start + m_size, dtype=np.int64)
        b = np.zeros((m_size, n, n), dtype=a_np.dtype)
        for j in range(n):
            b[:, j, j] = diag[j]
        rem = idx
        for i, j in reversed(positions):
            radix = diag[j]
            if radix > 1:
                b[:, i, j] = rem % radix
                rem = rem // radix
        w = b @ a_np
        mvals = np.zeros((m_size, n, n), dtype=a_np.dtype)
        ok = np.ones(m_size, dtype=bool)
        for j in range(n):
            acc = w[:, :, j].copy()
            for k in range(j):
                acc -= mvals[:, :, k] * b[:, k, j][:, None]
            dj = diag[j]
            ok &= (acc % dj == 0).all(axis=1)
            mvals[:, :, j] = acc // dj
        count += int(ok.sum())
        visits += b.shape[0]
        start += m_size
    return count, visits


def count_at_exponent(a: IntMatrix, p: int, e: int) -> tuple[int, int]:
    """(invariant count, candidates visited) for sublattices of index exactly p^e."""
    assert a.is_square
    n = a.n_rows
    abs_max = max((abs(x) for row in a.entries for x in row), default=0)
    if _int64_bound(n, p, e, abs_max) < _INT64_SAFE:
        a_np = np.array(a.entries, dtype=np.int64)
        chunk = max(1024, (1 << 21) // (n * n))
    else:
        a_np = np.array(a.entries, dtype=object)
        chunk = max(1024, (1 << 16) // (n * n))
    count = 0
    visits = 0
    for comp in compositions(e, n):
        c, v = _count_numpy(a_np, n, tuple(p ** ej for ej in comp), chunk)
        count += c
        visits += v
    return count, visits


def count_invariant_sublattices(a: IntMatrix, p: int, max_exp: int,
                                max_n: int = DEFAULT_MAX_N,
                                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> DirichletCoefficients:
    """Exact counts a_{p^0}..a_{p^max_exp} of A-invariant sublattices of Z^n.

    Refuses upfront (BudgetError) when n exceeds the cap or the candidate
    total exceeds the budget; the enumeration itself is deterministic and
    self-checks its visit count against the closed-form total.
    """
    if not sympy.isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if not isinstance(max_exp, int) or max_exp < 0:
        raise ValueError("max_exp must be a non-negative integer")
    if not a.is_square:
        raise ValueError("matrix must be square")
    n = a.n_rows
    if n > max_n:
        raise BudgetError(f"n = {n} exceeds the oracle cap {max_n}")
    work = sum(candidate_total(n, p, e) for e in range(max_exp + 1))
    if work > max_candidates:
        raise BudgetError(
            f"{work} HNF candidates for p = {p}, E = {max_exp} "
            f"exceed the budget {max_candidates}"
        )
    values = []
    for e in range(max_exp + 1):
        c, v = count_at_exponent(a, p, e)
        if v != candidate_total(n, p, e):
            raise RuntimeError(
                f"oracle visited {v} candidates at p = {p}, e = {e}; "
                f"expected {candidate_total(n, p, e)}"
            )
        values.append(c)
    return DirichletCoefficients(p, tuple(values))


@dataclass(frozen=True)
class ComparisonReport:
    """Formula-vs-oracle coefficients at one prime, with goodness verdicts.

    formula_values is None when no generic factor exists at p (some f_i
    ramifies).  mismatch_index is the first disagreeing exponent, None when
    the sequences agree or there is nothing to compare.  demoted flags the
    never-expected event: a heuristically-good prime whose formula fails
    the oracle.
    """

    prime: int
    max_exp: int
    formula_values: tuple[int, ...] | None
    oracle_values: tuple[int, ...]
    heuristically_good: bool
    mismatch_index: int | None
    demoted: bool

    @property
    def matches(self) -> bool:
        return self.formula_values is not None and self.mismatch_index is None

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "max_exp": self.max_exp,
            "formula_values": (
                list(self.formula_values) if self.formula_values is not None else None
            ),
            "oracle_values": list(self.oracle_values),
            "heuristically_good": self.heuristically_good,
            "mismatch_index": self.mismatch_index,
            "demoted": self.demoted,
        }


def compare(a: IntMatrix, p: int, max_exp: int,
            max_n: int = DEFAULT_MAX_N,
            max_candidates: int = DEFAULT_MAX_CANDIDATES,
            ctx: EdvContext | None = None) -> ComparisonReport:
    """Expand the formula-side factor at p and test it against the brute count.

    ctx is the EDV context of a; callers comparing at several primes pass
    it in so it is computed once.
    """
    if ctx is None:
        ctx = edv_context(a)
    good = is_good_prime(p, ctx.edv, ctx.denominator_lcm)
    try:
        factor = generic_local_factor(ctx.edv, p)
        formula = tuple(dirichlet_coefficients(factor, p, max_exp).values)
    except RamifiedPrimeError:
        formula = None
    counts = count_invariant_sublattices(
        a, p, max_exp, max_n=max_n, max_candidates=max_candidates
    )
    mismatch = None
    if formula is not None:
        for e, (x, y) in enumerate(zip(formula, counts.values)):
            if x != y:
                mismatch = e
                break
    return ComparisonReport(
        prime=p,
        max_exp=max_exp,
        formula_values=formula,
        oracle_values=counts.values,
        heuristically_good=good,
        mismatch_index=mismatch,
        demoted=good and (formula is None or mismatch is not None),
    )
