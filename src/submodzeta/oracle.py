"""Brute-force ground truth: count invariant sublattices, level by level.

A finite-index sublattice of Z^n has a unique basis in row Hermite normal
form: upper triangular, positive diagonal d_0..d_{n-1}, and the entries
above each pivot reduced into [0, d_j).  The sublattice is invariant under
the row action of A exactly when B*A = M*B for an integer matrix M.  The
number of invariant sublattices of index p^e (level e) is the Dirichlet
coefficient a_{p^e} the symbolic formulas must reproduce.
`count_invariant_sublattices` returns these counts as a bare tuple.  The
module imports nothing from the package but `linalg`: it shares no code
with the elementary divisor vector or the formulas, and `verify` (in
`cli`) sets the two side by side.

One kernel (`_invariance`) decides B*A = M*B for a batch of bases at once,
entry by entry: each entry of B, A, w = B*A and M is a Python int where the
whole batch agrees and a contiguous 1-D array over the batch otherwise.
Row i of M comes from row i of w by forward substitution against B, and
column j needs the division test q = acc // d_j, q*d_j == acc, only when
its pivot d_j is not 1.  Int entries fold into ints, and a term with an int
factor 0 is never formed, so a basis row without free entries gives a
constant row of w and a zero entry of A costs nothing.  A nonzero diagonal
does cost: the kernel takes 2-3 times as long on cI as on the zero matrix,
which has the same invariant lattices.

A sublattice of index p^e contains p^e*Z^n, so for e <= E it is invariant
under A exactly when it is invariant under A - cI + p^E*X, for any integer c
and integer matrix X.  `count_invariant_sublattices` therefore reduces A
once (`_reduced`): c is the most common diagonal residue mod p^E, and every
entry of A - cI becomes its centred residue mod p^E.  Both producers count
that matrix, so a scalar matrix is counted as the zero matrix, and entries
far past the int64 bound shrink below p^E/2.  The modulus is p^E for every
level, not p^e: the tree solves the actions of the levels it keeps against
this one matrix, and they feed its children up to level E.

Before that reduction, a matrix with one eigenvalue is replaced by a
strictly upper-triangular conjugate (`_triangular`): when c = tr(A)/n is an
integer and N = A - cI has N^n = 0, the producers count T + cI with
T = U*N*U^-1 strictly upper triangular and U unimodular.  Three facts make
this exact and always possible:

* x -> x*U^-1 permutes the sublattices of Z^n and keeps their index, and L
  is invariant under A exactly when L*U^-1 is invariant under U*A*U^-1, so
  the counts agree level by level.
* Left kernels are pure: if k*x lies in the left kernel of N for an integer
  k != 0, so does x.  So a primitive vector v of it is the last row of a
  unimodular W, and W*N*W^-1 has a zero last row; its leading block is
  nilpotent again, and the same step on it, one size smaller, ends in T.
* If N^j = 0 and N^(j-1) != 0, each row of N^(j-1) lies in the left kernel
  of N, so such a v is a nonzero row of N^(j-1) divided by its content.

The kernel's cost depends on where the nonzero entries of the matrix sit,
not only on how many there are, and T has a zero first column and a zero
last row.  U*A = (T + cI)*U and U*U^-1 = I are checked exactly.  Every
other matrix is counted as given.

After the reduction, a matrix T whose first column is zero below the
diagonal is counted from its trailing block (`_peeled`): every triangular
conjugate, so every matrix with one eigenvalue, and every 1 x 1 matrix.
Write T = [[d, t0], [0, T']], with V = span(e_1, .., e_{n-1}), which T maps
into itself.  For each sublattice L' < V of level l, each a >= 0 and each
w in V, put L = L' + Z(p^a e_0 + w).  Then:

* Every sublattice L of p-power index arises exactly once this way, w
  taken mod L': L' = L & V, the first coordinates of L fill p^a Z, and
  p^a e_0 + w is any vector of L with first coordinate p^a.  Its index is
  [Z^n : L] = p^a [V : L'] = p^(a + l).
* L is T-invariant exactly when L' is T'-invariant and
  (p^a e_0 + w)T - d(p^a e_0 + w) = p^a t0 + w(T' - dI) lies in L & V = L',
  that is, when w(T' - dI) = -p^a t0 mod L'.
* w -> w(T' - dI) is an endomorphism of the finite group V/L' with image
  K/L', K = L' + V(T' - dI).  So the congruence has a solution exactly when
  p^a t0 lies in K, that is when a >= o(L'), p^o(L') the order of t0 in
  V/K, and then it has g(L') = [V : K] solutions mod L', as many as the
  kernel has elements.

So a_{p^e} is the sum of g(L') over the T'-invariant L' of levels l with
l + o(L') <= e.  When T' = dI and t0 = 0, as for every zero or scalar
matrix and every cI + p^E*X once reduced, every L' is invariant, K = L'
gives g(L') = [V : L'] = p^l, and t0 = 0 gives o(L') = 0.  So a_{p^e} is
the sum over l <= e of p^l N_{n-1}(l), N_{n-1}(l) the candidate total of
level l of Z^(n-1) (N_0 = 1, 0, 0, ... at n = 1), and `_peeled` returns it
without enumerating anything.  Otherwise one call of HNF enumeration
(`count_at_exponent`) produces the block's levels 1..E in one pass and
keeps the bases of their invariant lattices; each basis's level is read off
its diagonal, whose entries must be powers of p.  The tree is not tried
there: the block's candidate totals, those of Z^(n-1), never exceed the
totals of Z^n that the budget admitted, and on the verify-dense benchmark
the tree won none of the block's levels.  g(L') is the gcd of the maximal
minors of the basis of L' stacked over the nonzero rows of T' - dI, and
g(L') / p^o(L') that of the same rows and t0 (`_minor_gcds`).  The minors
are expanded column by column, one batch of bases at a time, over the row
subsets whose minor is not the int 0.  They are int64 arrays at every level
when m! * B^m < 2^62, m = n - 1 and B the larger of p^E and the largest
entry, and Python integers otherwise.  A diagonal entry, g or g / p^o that
is not a power of p raises RuntimeError.  The cost is that of one
enumeration of the block's levels plus one pass of minors over their
invariant lattices.  On the 40 operations of a traced verify-dense benchmark
run (8 zero, 16 scalar and 16 nilpotent matrices, n = 2-4; one CPU of a
2-vCPU machine), the oracle ran 16 enumerations, one per nilpotent matrix,
tested 14 864 candidates and took 0.013 s; enumerating the levels of Z^n
instead would test 7.8 million.

Each producer batches a whole level, not one diagonal at a time
(`_batches`): a diagonal of more than _BATCH bases is split on its own, its
earliest mixed-radix positions ints and only the last ones arrays, and
consecutive smaller diagonals are packed, in order, into batches of at most
_PACK bases, where an entry is an array only where the packed diagonals
differ.

Each level comes from whichever of two producers is cheaper:

* HNF enumeration (`count_at_exponent`) visits every HNF basis of
  determinant p^e, in one fixed order (compositions of e in ascending
  lexicographic order, then mixed-radix over the off-diagonal residues),
  and checks its visit count against the closed-form candidate total, the
  coefficient of t^e in prod_{j<n} 1/(1 - p^j t).
* The tree of invariant lattices descends from Z^n.  Every invariant N of
  level e >= 1 has the invariant parent L = (p^-1 N) & Z^n with
  pL <= N < L, so level e is the set of invariant N with pL <= N < L over
  the invariant L of levels e-n..e-1.  In the basis C of L, with action
  M = C*A*C^-1, these N are the subspaces of F_p^n invariant under M mod p.
  Written in reduced row echelon form, a subspace gives the basis R*C of N
  with R upper triangular, diagonal entries in {1, p}.  Every subspace is
  tested by the kernel, against the actions of many nodes at once (node
  actions as columns, subspace entries as rows), in batches per (level,
  codimension) that pack its diagonal patterns, and the number tested is
  checked against the Gaussian-binomial total.  Each child basis R*C is
  reduced to HNF, the children of one codimension are deduplicated with
  those already found at their level.

The tree's cost of a level, in units of one HNF candidate, charges each
subspace it tests, each child it is expected to build, and each node level
it expands that is not empty.  The children are estimated from the counts
already found, as the last count times its growth over the one before, so
every decision reads counts and never clocks.  The tree produces a level
when its cost is below the level's candidate total, which never holds at
level 1: the root alone has at least as many subspaces as there are level-1
candidates.  A kept level, from either producer, holds only the int64 HNF
bases C of its invariant lattices.  When the tree expands it, one kernel
call solves their actions C*A*C^-1, with a pivot per basis, and its
entries are the node columns the subspace tests read.  Levels are kept
only while the tree can still pay off, and never the top level.  Entries
are int64 arrays whenever a rigorous worst-case bound keeps every
intermediate below 2^62, and Python integers (dtype object) otherwise.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import sympy

from .linalg import _INT64_SAFE, IntMatrix, _abs_max, _product

DEFAULT_MAX_N = 4
DEFAULT_MAX_CANDIDATES = 120_000_000

_BATCH = 1 << 14  # candidates tested together: 128 KB per int64 entry array
# Bases per batch of packed diagonals, and (node, subspace) pairs per tree
# kernel call.  Where packed diagonals differ, their pivots are arrays, and
# dividing by an array costs more than by an int: on the verify-dense
# inputs, packing up to 4096 bases took 6-10 % less oracle time than packing
# up to _BATCH.  Tree calls of up to _BATCH pairs, with the patterns of a
# codimension packed, raised the traced peak memory of a 4x4 nilpotent
# count at p = 2, E = 5 from 5.6 to 7.2 MiB.
_PACK = 1 << 12

# The tree's cost in units of one HNF candidate: per subspace tested, per
# child it is expected to build, and per node level it expands.  Timed per
# level on the verify workloads' inputs (int64 path, one CPU, each level
# produced both ways from the same state), a tree level costs 0.2, 0.4 and
# 0.7 ms per node level at n = 2, 3 and 4, plus 0.2-0.4 us per subspace and,
# at n = 3 and 4, 0.3-0.5 us per child built; an HNF level costs 0.09-0.2 ms
# plus 5-18 ns per candidate and 30-190 ns per lattice it keeps for the
# tree.  The tree builds 1-7 times as many children as the estimate: it finds
# a lattice once from each of its parents.  Over whole counts of those
# inputs, the dense total stayed within 1 % of its best for a subspace cost
# of 2-6, a child cost of 20-45 and a level cost of 1000-8000; the level
# cost decides the sparse levels.  At 1000, one node level weighs what a
# sparse HNF level of about 1000 candidates does at n = 2 (0.13-0.2 ms
# each).  At 1200, x^2+1 at p = 3, E = 7 moved level 6 (1093 candidates,
# one node level) to HNF and ran 6 % slower; at 250 the large-entry x^2+1
# at p = 5 moved to the tree and ran 20 % slower.  Without the subspace
# term the dense p95 rose 5-10 %, without the child term the dense total
# 11-12 %, and without the level term the sparse total 7-11 %.
_TREE_SUBSPACE = 3
_TREE_CHILD = 30
_TREE_LEVEL = 1000


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the configured work budget."""


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex."""
    if parts < 1:
        raise ValueError("compositions need at least one part")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _level_totals(n: int, p: int):
    """The candidate totals of levels e = 0, 1, 2, ...: the numbers of HNF
    candidates of determinant p^e, the sublattices of index p^e in Z^n.

    These are the coefficients of prod_{j<n} 1/(1 - p^j t), the local factor
    of the zeta function of Z^n (Grunewald-Segal-Smith): h[j] is the
    coefficient of t^e in the product of the first j+1 factors.
    """
    if n < 1:
        raise ValueError("a lattice needs at least one dimension")
    h = [1] * n
    while True:
        yield h[-1]
        for j in range(1, n):
            h[j] = h[j - 1] + p ** j * h[j]


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _int64_bound(n: int, p: int, e: int, abs_max: int) -> int:
    """Worst-case magnitude through the bases, B*A, and forward substitution."""
    return 4 * (2 ** n) * n * max(1, abs_max) * (p ** e) ** n


def _action_dtype(n: int, p: int, e: int, abs_max: int):
    """int64 when every intermediate at level e provably fits, else object."""
    return np.int64 if _int64_bound(n, p, e, abs_max) < _INT64_SAFE else object


def _nonzero(row):
    """(column, entry) for each entry of a row that is not the int 0."""
    return [(j, x) for j, x in enumerate(row) if type(x) is not int or x]


def _muladd(s, x, y, sub=False):
    """s + x*y, or s - x*y when sub, for entries that are ints or arrays.

    x and y are never the int 0.  Two ints stay an int, an int factor 1 is
    not multiplied, and an int s = 0 is not added.
    """
    if type(x) is int:
        x, y = y, x
    if type(y) is not int:
        x = x * y
    elif type(x) is int or y != 1:
        x = x * y
    if type(s) is int and s == 0:
        return -x if sub else x
    return s - x if sub else s + x


def _invariance(b, a):
    """(ok, m) with m*b = b*a, solved entrywise against upper-triangular b.

    b and a are n x n nested lists.  Each entry is a Python int, the same
    for the whole batch, or an array over the batch; arrays broadcast
    together, and only the entries that are not the int 0 are visited.
    b[j][j] is the pivot of column j.  ok is a bool or a boolean array:
    every division by a pivot was exact, and then m (a nested list of the
    same kind) is the integer action.  Row i of m needs only row i of b*a,
    so once no batch member is left, m is None.
    """
    n = len(b)
    b_rows = [_nonzero(row) for row in b]
    a_rows = [_nonzero(row) for row in a]
    ok = True
    m = []
    for i in range(n):
        acc = [0] * n
        for k, x in b_rows[i]:
            for j, y in a_rows[k]:
                acc[j] = _muladd(acc[j], x, y)
        row = []
        for j in range(n):
            q = v = acc[j]
            d = b[j][j]
            if type(v) is int and v == 0:
                row.append(0)
                continue
            if type(d) is not int or d != 1:
                q = v // d
                exact = q * d == v
                if exact is False:
                    return False, None
                if exact is not True:
                    ok = exact if ok is True else ok & exact
            row.append(q)
            for l, x in b_rows[j]:
                if l > j:
                    acc[l] = _muladd(acc[l], q, x, sub=True)
        if ok is not True and not ok.any():
            return ok, None
        m.append(row)
    return ok, m


def _entries(batch, dtype):
    """A non-empty (k, n, n) batch entrywise: an int where all k agree, else a 1-D array."""
    first = batch[0].tolist()
    if len(batch) == 1:
        return first
    same = (batch == batch[:1]).all(axis=0).tolist()
    cols = np.ascontiguousarray(batch.transpose(1, 2, 0), dtype=dtype)
    return [[x if s else col for x, s, col in zip(*rows)] for rows in zip(first, same, cols)]


def _stack(entries, idx, dtype):
    """The (len(idx), n, n) array of the members idx of a batch held entrywise."""
    n = len(entries)
    out = np.empty((len(idx), n, n), dtype=dtype)
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            out[:, i, j] = x if isinstance(x, int) else x[idx]
    return out


def _batches(n, level, dtype):
    """The upper-triangular bases of one level, entrywise, at most _BATCH at a time.

    level is a list of (diag, free) pairs in visiting order.  For each
    diagonal, the entries at the positions `free` run over [0, diag[j]) in
    mixed radix, the last position fastest; every other entry is 0.  Yields
    (b, size): b[i][j] is an int where the whole batch agrees, else a 1-D
    array of the batch's size.  A diagonal of more than _BATCH bases is split
    on its own: the last positions whose combinations fit in one batch run
    fully inside each batch, the position before them in runs of as many
    values as fit, and all earlier ones are ints.  Consecutive smaller
    diagonals are packed, in order, into batches of at most _PACK bases, or
    of one diagonal alone when it has more.
    """
    group = []
    filled = 0
    for diag, free in level:
        free = [(i, j) for i, j in free if diag[j] > 1]
        radix = [diag[j] for _, j in free]
        size = 1
        for r in radix:
            size *= r
        if group and filled + size > _PACK:
            yield _packed(n, group, filled, dtype), filled
            group, filled = [], 0
        if size > _BATCH:
            yield from _split(n, diag, free, radix, dtype)
        else:
            group.append((diag, free, radix, size))
            filled += size
    if group:
        yield _packed(n, group, filled, dtype), filled


def _packed(n, group, total, dtype):
    """The bases of whole diagonals (diag, free, radix, size), one after another."""
    sizes = [size for *_, size in group]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        d = [diag[i] for diag, *_ in group]
        b[i][i] = d[0] if d.count(d[0]) == len(d) else np.repeat(np.array(d, dtype=dtype), sizes)
    slot = {}
    for _, free, _, _ in group:
        for pos in free:
            slot.setdefault(pos, len(slot))
    digits = np.zeros((len(slot), total), dtype=dtype)
    start = 0
    for _, free, radix, size in group:
        # the mixed radix of one diagonal, written through views of its slice
        stride = size
        for pos, r in zip(free, radix):
            stride //= r
            digits[slot[pos], start:start + size].reshape(-1, r, stride)[...] = \
                np.arange(r)[:, None]
        start += size
    for (i, j), k in slot.items():
        b[i][j] = digits[k]
    return b


def _split(n, diag, free, radix, dtype):
    """The bases of one diagonal of more than _BATCH bases, at most _BATCH at a time."""
    low = len(free)
    size = 1
    while size * radix[low - 1] <= _BATCH:
        low -= 1
        size *= radix[low]
    r = radix[low - 1]
    run = min(_BATCH // size, r)
    # built once and sliced to each batch's length: the digits of a full run;
    # a batch starting at value h of position low-1 adds h to its digits.
    # The batches share these arrays, which nothing writes to.
    step = np.repeat(np.arange(run).astype(dtype), size)
    tails = np.tile(np.indices(radix[low:], dtype=dtype).reshape(len(free) - low, size), run)
    b = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for prefix in itertools.product(*map(range, radix[:low - 1])):
        for (i, j), d in zip(free, prefix):
            b[i][j] = d
        for h in range(0, r, run):
            k = min(run, r - h) * size
            i, j = free[low - 1]
            b[i][j] = step[:k] + h if h else step[:k]
            for (i, j), d in zip(free[low:], tails):
                b[i][j] = d[:k]
            yield [row[:] for row in b], k


def _count_numpy(a, diags, dtype, nodes=None):
    """Vectorized enumeration of one level, the diagonals diags in order, in dtype.

    a is the matrix as nested lists of ints.  Returns (invariant count,
    candidates visited).  When nodes is a list, the invariant bases are
    appended to it, one array per batch.
    """
    n = len(a)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = 0
    visits = 0
    for b, size in _batches(n, [(d, positions) for d in diags], dtype):
        ok, _ = _invariance(b, a)
        found = size * ok if isinstance(ok, bool) else int(np.count_nonzero(ok))
        count += found
        visits += size
        if nodes is not None and found:
            idx = np.arange(size) if ok is True else np.flatnonzero(ok)
            nodes.append(_stack(b, idx, dtype))
    return count, visits


def count_at_exponent(a: IntMatrix, p: int, levels: range, nodes=None) -> tuple[int, int]:
    """(invariant count, candidates visited) for sublattices of index p^e, e in levels.

    levels is a range of consecutive levels.  Their compositions run, each
    level's in ascending order, through one `_count_numpy` pass in the dtype
    of the top level.  Raises RuntimeError unless the visits equal the sum
    of those levels' candidate totals.  When nodes is a list, the bases of
    the invariant sublattices are appended to it as arrays; a batch may hold
    bases of several levels.
    """
    if not a.is_square:
        raise ValueError("matrix must be square")
    n = a.n_rows
    diags = [tuple(p ** ej for ej in comp) for e in levels for comp in compositions(e, n)]
    dtype = _action_dtype(n, p, levels[-1], _abs_max(a.entries))
    count, visits = _count_numpy(a.entries, diags, dtype, nodes)
    total = sum(itertools.islice(_level_totals(n, p), levels.start, levels.stop))
    if visits != total:
        raise RuntimeError(f"oracle visited {visits} candidates at p = {p}, "
                           f"e = {levels.start}..{levels.stop - 1}; expected {total}")
    return count, visits


def _reduce_upper_hnf(b, modulus):
    """Row HNF, in place, of a batch of upper-triangular integer bases.

    Every diagonal entry must be positive and every lattice must contain
    modulus*Z^n, so that entries right of the column being reduced can be
    kept in [0, modulus) without changing the lattice.
    """
    n = b.shape[-1]
    for j in range(1, n):
        dj = b[:, j, j]
        for i in range(j):
            q = b[:, i, j] // dj
            b[:, i, j:] -= q[:, None] * b[:, j, j:]
            b[:, i, j + 1:] %= modulus
    return b


class _LatticeTree:
    """The invariant lattices of the levels the tree has yet to expand.

    levels[l] holds the int64 HNF bases C of the invariant lattices of level
    l, whose actions C*A*C^-1 `_expand` solves.  pending[l] holds the distinct
    child bases found so far at a level not yet produced.  totals[e] is the
    candidate total of level e (from _level_totals), the HNF cost of level
    e, and counts[e] the number of invariant lattices of level e, for the
    levels found so far.
    """

    def __init__(self, a: IntMatrix, p: int, totals: list[int]):
        self.n = n = a.n_rows
        self.p = p
        self.top = top = len(totals) - 1
        self.totals = totals
        self.entries = a.entries
        self.abs_max = _abs_max(a.entries)
        self.gauss = [_gaussian_binomial(n, k, p) for k in range(n + 1)]
        # bases stay int64: every intermediate of their reduction is below (n*p^e)^2
        self.keeping = top >= 2 and (n * p ** top) ** 2 < _INT64_SAFE
        self.levels = {0: np.eye(n, dtype=np.int64)[None]}
        self.pending = {}
        self.counts = [1]
        self.ratio = {1: self.work(1) / totals[1]} if top else {}

    def _span(self, level: int, e: int) -> int:
        """Subspaces tested per node of `level` when it is expanded for level e."""
        return sum(self.gauss[max(1, e - level):min(self.n, self.top - level) + 1])

    def work(self, e: int, levels=None) -> int:
        """Subspaces the tree must test to expand the kept `levels`, by default
        all of them, for level e."""
        return sum(len(self.levels[l]) * self._span(l, e)
                   for l in (self.levels if levels is None else levels) if l < e)

    def _cost(self, e: int, levels) -> int:
        """The cost, in HNF candidates, of expanding the kept `levels` for level e.

        It charges each subspace tested, each node level that is not empty,
        and the children expected: the last count times its growth over the
        one before.
        """
        expanded = sum(1 for l in levels if len(self.levels[l]))
        last, before = self.counts[-1], self.counts[-2] if len(self.counts) > 1 else 1
        return (_TREE_SUBSPACE * self.work(e, levels)
                + _TREE_CHILD * (last * last // max(1, before)) + _TREE_LEVEL * expanded)

    def cheaper(self, e: int) -> bool:
        """Would the tree produce level e for less than HNF enumeration?"""
        return self.keeping and self._cost(e, self.levels) < self.totals[e]

    def record(self, e: int, nodes) -> None:
        """Keep level e as found by count_at_exponent: its arrays of bases."""
        empty = np.zeros((0, self.n, self.n), dtype=np.int64)
        self.levels[e] = np.concatenate(nodes or [empty]).astype(np.int64)
        self.counts.append(len(self.levels[e]))

    def produce(self, e: int) -> int:
        """Count level e: expand every level kept so far, keep the children."""
        for l in sorted(self.levels):
            self._expand(l, e)
        empty = np.zeros((0, self.n, self.n), dtype=np.int64)
        self.levels[e] = self.pending.pop(e, empty)
        self.counts.append(len(self.levels[e]))
        return self.counts[-1]

    def prune(self, e: int) -> None:
        """After level e, drop the levels whose children all land at or below e.

        Once the kept levels cannot pay off any more, drop them all and stop
        keeping: HNF enumeration then produces every remaining level.
        """
        n, top = self.n, self.top
        if e < top:
            self.ratio[e + 1] = self.work(e + 1) / self.totals[e + 1]
        # Give up when the tree would test at least one subspace per HNF
        # candidate at level e+1 with no fall from any of the last n levels,
        # or when expanding level e alone costs more than all HNF work left;
        # without the second, [[0,1],[1,0]] at p = 2, E = 3-9, keeps more
        # levels, which no tree level reads.
        if (e == top
                or self._cost(e + 1, [e]) >= sum(self.totals[e + 1:])
                or self.ratio[e + 1] >= max(1, min(self.ratio[f] for f in
                                                   range(max(1, e + 1 - n), e + 1)))):
            self.keeping = False
            self.levels.clear()
            self.pending.clear()
            return
        for l in [l for l in self.levels if l <= e - n]:
            del self.levels[l]

    def _expand(self, l: int, e: int) -> None:
        """Test every subspace of every node of level l whose child lands at >= e."""
        n, p = self.n, self.p
        c = self.levels.pop(l)
        if not len(c):
            return
        # the test is the level-1 HNF test of the action M against bases R:
        # node actions are columns over the nodes, subspace digits rows.  So
        # the actions C*A*C^-1 are solved with the bases C as columns.
        ok, act = _invariance([[x if isinstance(x, int) else x[:, None] for x in row]
                               for row in _entries(c, _action_dtype(n, p, l, self.abs_max))],
                              self.entries)
        if not np.all(ok):
            raise RuntimeError(f"a child basis at level {l} is not invariant")
        dtype = _action_dtype(n, p, 1, max(abs(x) if isinstance(x, int) else int(np.abs(x).max())
                                           for row in act for x in row))
        act = [[x if isinstance(x, int) else x.astype(dtype, copy=False) for x in row]
               for row in act]
        tested = 0
        for k in range(max(1, e - l), min(n, self.top - l) + 1):
            found = [self.pending.pop(l + k)] if l + k in self.pending else []
            patterns = [(d, [(i, j) for j in range(n) for i in range(j)
                             if d[i] == 1 and d[j] == p])
                        for d in itertools.product((1, p), repeat=n) if d.count(p) == k]
            for r, size in _batches(n, patterns, dtype):
                rows = [[x if isinstance(x, int) else x[None] for x in row] for row in r]
                step = max(1, _PACK // size)
                for s in range(0, len(c), step):
                    part = [[x if isinstance(x, int) else x[s:s + step] for x in row]
                            for row in act]
                    ok, _ = _invariance(rows, part)
                    shape = (min(step, len(c) - s), size)
                    tested += shape[0] * shape[1]
                    if ok is False:
                        continue
                    if ok is True or ok.shape != shape:
                        ok = np.broadcast_to(ok, shape)
                    node, sub = np.nonzero(ok)
                    if node.size:
                        found.append(_reduce_upper_hnf(_stack(r, sub, np.int64) @ c[s + node],
                                                       p ** (l + k)))
            if found:
                self.pending[l + k] = _distinct(np.concatenate(found))
        expected = len(c) * self._span(l, e)
        if tested != expected:
            raise RuntimeError(
                f"tree tested {tested} subspaces below level {l}; expected {expected}")


def _distinct(b):
    """The distinct bases of a batch, each once."""
    keys = b.reshape(len(b), -1)
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.ones(len(b), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return b[order[first]]


def _reduced(a: IntMatrix, modulus: int) -> IntMatrix:
    """A - cI with every entry a centred residue mod modulus, in (-modulus/2, modulus/2].

    c is the most common diagonal residue, ties going to 0, and 0 when
    subtracting it would raise the largest |entry|.  The reduced matrix has
    no fewer zero entries than A and no larger entry; every sublattice
    containing modulus*Z^n is invariant under it exactly when under A.
    """
    def centred(x):
        r = x % modulus
        return r - modulus if 2 * r > modulus else r

    residues = [row[i] % modulus for i, row in enumerate(a.entries)]
    c = max(dict.fromkeys(residues), key=lambda r: (residues.count(r), r == 0))
    plain = [[centred(x) for x in row] for row in a.entries]
    shifted = [[centred(x - c) if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(plain)]
    if max(map(abs, itertools.chain(*shifted))) > max(map(abs, itertools.chain(*plain))):
        shifted = plain
    return IntMatrix(shifted)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _last_power(m, k: int):
    """N^(j-1) for the leading k x k block N of m, j its nilpotency index; None when N = 0.

    Raises ValueError when N^k != 0: then N is not nilpotent.
    """
    block = [row[:k] for row in m[:k]]
    power, step = None, block
    for _ in range(k):
        if not any(map(any, step)):
            return power
        power, step = step, _product(step, block)
    raise ValueError("the block is not nilpotent")


def _flag(m):
    """(T, U, U^-1): T = U*N*U^-1 strictly upper triangular, U unimodular, for nilpotent N = m.

    The last row of U spans a pure line of the left kernel of N, so T has a
    zero last row; the leading block is treated the same way, one size
    smaller.  The line is a row of N^(j-1), j the nilpotency index, divided by
    its content.  Extended-gcd column operations E (det 1) on the leading k
    columns carry that row v to (0, ..., 0, 1), and the conjugation
    N -> E^-1*N*E then clears the last row of the leading k x k block.
    Raises ValueError when N is not nilpotent.
    """
    n = len(m)
    m = [list(row) for row in m]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for k in range(n, 1, -1):
        power = _last_power(m, k)
        if power is None:
            break
        v = next(row for row in power if any(row))
        g = 0
        for x in v:
            g = _xgcd(g, x)[0]
        if v[-1] < 0:
            g = -g
        v = [x // g for x in v]
        l = k - 1
        for i in range(l):
            a, b = v[i], v[l]
            if not a:
                continue
            g, s, t = _xgcd(a, b)
            a, b = a // g, b // g
            # E on columns (i, l): [[b, s], [-a, t]]; E^-1 on rows: [[t, -s], [a, b]]
            v[i], v[l] = 0, g
            for rows in (m, u):
                rows[i], rows[l] = ([t * x - s * y for x, y in zip(rows[i], rows[l])],
                                    [a * x + b * y for x, y in zip(rows[i], rows[l])])
            for rows in (m, u_inv):
                for row in rows:
                    row[i], row[l] = b * row[i] - a * row[l], s * row[i] + t * row[l]
    return m, u, u_inv


def _triangular(a: IntMatrix) -> IntMatrix:
    """T + cI with T = U*(A - cI)*U^-1 strictly upper triangular, U unimodular.

    Only for a matrix with one eigenvalue c, an integer: c = tr(A)/n and
    (A - cI)^n = 0.  Every other matrix, and every scalar one, comes back
    as it is.  Raises RuntimeError unless U*A = (T + cI)*U and U*U^-1 = I
    hold exactly.
    """
    n = a.n_rows
    c, r = divmod(sum(a.entries[i][i] for i in range(n)), n)
    if r:
        return a
    nil = [[x - c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a.entries)]
    # tr(N^2) = 0 is necessary for N^n = 0, and costs no product
    if not any(map(any, nil)) or sum(x * nil[j][i] for i, row in enumerate(nil)
                                     for j, x in enumerate(row)):
        return a
    try:
        t, u, u_inv = _flag(nil)
    except ValueError:  # N^n != 0
        return a
    out = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
    if (_product(u, a.entries) != _product(out, u)
            or _product(u, u_inv) != [[int(i == j) for j in range(n)] for i in range(n)]
            or any(x for i, row in enumerate(t) for x in row[:i + 1])):
        raise RuntimeError("the unimodular triangular conjugate failed its exact check")
    return IntMatrix(out)


def _level_counts(a: IntMatrix, p: int, totals: list[int]) -> list[int]:
    """The counts of levels 0..top of the A-invariant sublattices, top = len(totals) - 1.

    Each level e >= 1 comes from HNF enumeration or from the tree, whichever
    is cheaper.
    """
    top = len(totals) - 1
    tree = _LatticeTree(a, p, totals)
    values = [1]
    for e in range(1, top + 1):
        if tree.cheaper(e):
            values.append(tree.produce(e))
        else:
            nodes = [] if tree.keeping and e < top else None
            values.append(count_at_exponent(a, p, range(e, e + 1), nodes)[0])
            if nodes is not None:
                tree.record(e, nodes)
        if tree.keeping:
            tree.prune(e)
    return values


def _minor_gcds(cols, rows):
    """(g, h): per basis C of a batch, the gcd of the maximal minors of C
    stacked over rows[:-1], and over all of rows.

    cols[i, j] is entry (i, j) of the upper-triangular bases, an array over
    the batch; rows are int rows of length m, the same for the whole batch.
    The minors of the leading j+1 columns come from those of the leading j
    by expansion along column j, one entry at a time (`_muladd`); an entry
    of C below the diagonal or of rows that is 0 costs nothing, and a row
    subset whose minor is the int 0 is dropped.
    """
    m, _, k = cols.shape
    stack = [[cols[i, j] if j >= i else 0 for j in range(m)] for i in range(m)] + rows
    last = len(stack) - 1
    minors = {(): 1}
    for j in range(m):
        grown = {}
        for subset, mu in minors.items():
            for r, row in enumerate(stack):
                x = row[j]
                if r in subset or (type(x) is int and x == 0):
                    continue
                key = tuple(sorted(subset + (r,)))
                grown[key] = _muladd(grown.get(key, 0), x, mu, sub=(key.index(r) + j) % 2)
        minors = {key: mu for key, mu in grown.items() if type(mu) is not int or mu}
    g = h = np.zeros(k, dtype=cols.dtype)
    for key, mu in minors.items():
        if last not in key:
            g = np.gcd(g, mu)
        h = np.gcd(h, mu)
    return g, h


def _exponents(x, powers):
    """v with x = powers[v] entrywise; RuntimeError unless every entry is one of powers."""
    v = np.minimum(np.searchsorted(powers, x), len(powers) - 1)
    if (powers[v] != x).any():
        raise RuntimeError("a diagonal entry or index of the peeled count is not a power of p")
    return v


def _peeled(a: IntMatrix, p: int, top: int) -> list[int]:
    """The counts of levels 0..top of a matrix whose first column is zero below the diagonal.

    With T' the trailing block, d = T[0][0] and t0 the rest of row 0, the
    T'-invariant L' of level l each add g(L') = [V : L' + V(T' - dI)] to
    every level e >= l + o(L'), where p^o(L') is the order of t0 modulo
    L' + V(T' - dI).  When T' = dI and t0 = 0, every L' is invariant, with
    g(L') = p^l and o(L') = 0, so the counts come from the block's candidate
    totals alone.  Otherwise one HNF enumeration finds the invariant L' of
    levels 1..top, each basis's level is read off its diagonal, and both
    indices are gcds of maximal minors (`_minor_gcds`): g that of the rows
    of L' and T' - dI, and g / p^o that of those rows and t0.
    """
    m = a.n_rows - 1
    d, *t0 = a.entries[0]
    block = [row[1:] for row in a.entries[1:]]
    rows = [r for r in ([x - d * (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(block)) if any(r)] + [t0]
    if not any(map(any, rows)):  # always so at n = 1, where t0 is empty
        totals = itertools.islice(_level_totals(m, p), top + 1) if m else [1] + [0] * top
        return list(itertools.accumulate(p ** l * t for l, t in enumerate(totals)))
    nodes = [np.eye(m, dtype=np.int64)[None]]
    count_at_exponent(IntMatrix(block), p, range(1, top + 1), nodes)
    # every entry is at most B, so every partial sum of a minor is at most m! * B^m
    fits = math.factorial(m) * max(p ** top, _abs_max(rows)) ** m < _INT64_SAFE
    dtype = np.int64 if fits else object
    cols = np.concatenate([b.transpose(1, 2, 0) for b in nodes], axis=2, dtype=dtype,
                          casting="unsafe")
    powers = np.array([p ** v for v in range(top + 1)], dtype=dtype)
    level = sum(_exponents(cols[i, i], powers) for i in range(m))
    g, h = _minor_gcds(cols, rows)
    # g divides det C = p^level, and h divides g
    v, o = _exponents(g, powers), _exponents(g // h, powers)
    at = level + o
    keep = at <= top
    pairs = np.bincount(at[keep] * (top + 1) + v[keep])
    counts = [0] * (top + 1)
    for key in np.flatnonzero(pairs).tolist():
        counts[key // (top + 1)] += int(pairs[key]) * p ** (key % (top + 1))
    return list(itertools.accumulate(counts))


def count_invariant_sublattices(a: IntMatrix, p: int, max_exp: int,
                                max_n: int = DEFAULT_MAX_N,
                                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> tuple[int, ...]:
    """Exact counts (a_{p^0}, .., a_{p^max_exp}) of A-invariant sublattices of Z^n.

    Refuses upfront (BudgetError) when n exceeds the cap or the HNF
    candidate total exceeds the budget, at the first level where the
    running total passes it.  Both producers count A - cI with its entries
    centred mod p^max_exp (`_reduced`), which has the same invariant
    lattices up to index p^max_exp.  A matrix whose first column is then
    zero below the diagonal is counted from its trailing block (`_peeled`);
    every other one level by level (`_level_counts`), each level e >= 1
    from HNF enumeration or from the tree of invariant lattices, whichever
    is cheaper.  Both producers are deterministic and self-check their work
    against closed-form totals.
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
    totals = []
    running = 0
    for e, total in enumerate(itertools.islice(_level_totals(n, p), max_exp + 1)):
        totals.append(total)
        running += total
        if running > max_candidates:
            raise BudgetError(
                f"{running} HNF candidates up to level {e} for p = {p}, E = {max_exp} "
                f"exceed the budget {max_candidates}"
            )
    a = _reduced(_triangular(a), p ** max_exp)
    if not any(row[0] for row in a.entries[1:]):
        return tuple(_peeled(a, p, max_exp))
    return tuple(_level_counts(a, p, totals))
