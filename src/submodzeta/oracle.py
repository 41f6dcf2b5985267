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

One kernel (`_invariance`) decides whether B*A = M*B has an integer
solution M for a batch of bases at once, entry by entry: each entry of B, A
and w = B*A is a Python int where the whole batch agrees and a contiguous
1-D array over the batch otherwise.  Row i of M comes from row i of w by
forward substitution against B, and the verdict is that each division by a
pivot other than 1 is exact.  A term with an int factor 0 is never formed,
so a zero entry of A costs nothing.

A sublattice of index p^e contains p^e*Z^n, so for e <= E it is invariant
under A exactly when it is invariant under A + p^E*X, for any integer
matrix X.  `count_invariant_sublattices` therefore reduces A once
(`_reduced`): every entry becomes its centred residue mod p^E, so entries
far past the int64 bound shrink below p^E/2 and no zero entry is lost.
The modulus is p^E for every level, not p^e: the tree forms each g(A) once
from this one matrix, mod p^E, and builds children from it up to level E.

Before that reduction, a matrix with one eigenvalue is replaced by a
strictly upper-triangular conjugate (`_triangular`): when c = tr(A)/n is an
integer and N = A - cI has N^n = 0, the producers count T = U*N*U^-1,
strictly upper triangular with U unimodular.  Four facts make this exact
and always possible:

* cI maps every lattice into itself: A and N have the same invariant ones.
* x -> x*U^-1 permutes the sublattices of Z^n and keeps their index, and L
  is invariant under N exactly when L*U^-1 is invariant under U*N*U^-1, so
  the counts agree level by level.
* Left kernels are pure: if k*x lies in the left kernel of N for an integer
  k != 0, so does x.  So a primitive vector v of it is the last row of a
  unimodular W, and W*N*W^-1 has a zero last row; its leading block is
  nilpotent again, and the same step on it, one size smaller, ends in T.
* If N^j = 0 and N^(j-1) != 0, each row of N^(j-1) lies in the left kernel
  of N, so such a v is a nonzero row of N^(j-1) divided by its content.

The kernel's cost depends on where the nonzero entries of the matrix sit,
not only on how many there are, and T has a zero first column and a zero
last row.  U*N = T*U and U*U^-1 = I are checked exactly.  Every other
matrix is counted as given.

After the reduction, a matrix T whose first column is zero below the
diagonal is counted from its trailing block (`_peeled`): every triangular
conjugate and every scalar matrix, so every matrix with one eigenvalue, and
every 1 x 1 matrix.
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
(`count_at_exponent`) produces the levels 1..E of T' - dI, entries centred
mod p^E, which has the invariant lattices of T', in one pass, and keeps the
bases of their invariant lattices; each basis's level is read off its
diagonal, whose entries must be powers of p.  The tree is not tried
there: the block's candidate totals, those of Z^(n-1), never exceed the
totals of Z^n that the budget admitted, and on the verify-dense benchmark
the tree won none of the block's levels (re-measured for the tree of
maximal invariant sublattices: the cost rule chose HNF for all 1790 block
levels of the first 201 distinct operations of seeds 1-3).  g(L') is the
gcd of the maximal minors of the basis of L' stacked over the nonzero rows
of that centred T' - dI (L' contains p^E*V, so K is unchanged), and
g(L') / p^o(L') that of the same rows and t0
(`_minor_gcds`).  The minors are expanded column by column, one batch of
bases at a time, over the row subsets whose minor is not the int 0.  They
are int64 arrays at every level when m! * B^m < 2^62, m = n - 1 and B the
larger of p^E and the largest entry, and Python integers otherwise.  A
diagonal entry, g or g / p^o that is not a power of p raises RuntimeError.
The cost is that of one enumeration of the block's levels plus one pass of
minors over their invariant lattices.  On the 40 operations of a traced
verify-dense benchmark run (8 zero, 16 scalar and 16 nilpotent matrices,
n = 2-4; one CPU of a 2-vCPU machine), the oracle ran 16 enumerations, one
per nilpotent matrix, tested 14 864 candidates and took 0.013 s;
enumerating the levels of Z^n instead would test 7.8 million.

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
* The tree of invariant lattices descends from Z^n, building each node's
  maximal invariant sublattices.  Let g run over the distinct monic
  irreducible factors of the characteristic polynomial chi of A mod p, of
  degrees d.  For an invariant L with basis C, the children of L for g are
  the N with N0 = L*g(A) + pL <= N < L and L/N = F_p[x]/(g), a field of
  p^d elements; by the correspondence theorem these N are the hyperplanes
  over that field of L/N0, all invariant, each of level l + d.
  - Every invariant N of level e >= 1 is such a child.  Z^n/N is a finite
    nonzero Z[A]-module, so it has a simple submodule S, killed by p and
    by g(A) for an irreducible g.  Every composition factor of Z^n/N is one
    of Z^n/p^e Z^n, whose factors p^i Z^n / p^(i+1) Z^n are F_p^n under A
    mod p, so g divides chi mod p.  The preimage P of S is invariant, of
    level e - deg g, and N contains pP and P*g(A) with P/N = S: N is a
    child of P for g.  So level e is the union over the factors g of the
    children of level e - deg g.  N has one parent per simple submodule of
    Z^n/N, so children are deduplicated per level.
  - N0 is built from the rows of C*g(A) and the triangular basis p*C, one
    row at a time: a row is reduced by a pivot that divides its entry, and
    otherwise swapped in by the unimodular gcd combination.  L contains
    p^l Z^n, so pL contains p^(l+1) Z^n, and rows enter mod p^(l+1); the
    result is reduced to HNF (`_insert`, `_hnf`).  L/N0 = (L/pL)/(image of g(M)),
    M = C*A*C^-1, is a vector space over the field, of dimension k >= 1.
    When [L : N0] = p^d, k = 1 and N0 is the only child; so it was for all
    2964 (node, factor) pairs of the first 160 verify-sparse operations of
    seeds 1-3.  Otherwise a basis q_1..q_k over the field is read
    off the rows of C, and the (p^dk - 1)/(p^d - 1) hyperplanes, with
    normalized coordinates (0, .., 0, 1, a_(j+1), .., a_k), are spanned over
    N0 by q_i, i < j, and q_i - q_j*a_i(A), i > j, with their images under
    A^t, t < d.
  - chi mod p is factored once per count, with sympy's `gf_factor` (chi
    need not be squarefree mod p), and each g(A) is formed once, mod p^E.
  - Self-checks raise RuntimeError: L/N0 must have order a power of p^d;
    the hyperplanes built below a node must number (p^dk - 1)/(p^d - 1)
    and be distinct, each of index p^(l+d); and every child of a level
    must pass the invariance kernel.

The tree works in Python integers, one node at a time: its levels hold a
few bases where it wins, and its bases have entries below p^E however
large, so it has no int64 bound.  Its cost, in units of one HNF candidate,
charges each (node, factor) pair it expands and each child it is expected
to build, estimated as the last count times its growth over the one
before, so every decision reads counts and never clocks.  That one cost,
set against candidate totals, decides every tree choice.  The tree produces
a level when expanding the levels e - d costs less than the level's total,
never at level 1, whose (p^n - 1)/(p - 1) candidates one enumeration tests.
It stops keeping levels at the top, or once expanding the last one alone
costs at least the totals of all levels left.  A kept level, from either
producer, holds the HNF bases of its invariant lattices as tuples of rows.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
import sympy
from sympy.core.intfunc import igcdex
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor
from sympy.polys.matrices.ddm import DDM

from .linalg import _INT64_SAFE, IntMatrix, IntPoly, _abs_max, _product, poly_at_matrix

DEFAULT_MAX_N = 4
DEFAULT_MAX_CANDIDATES = 120_000_000

_BATCH = 1 << 14  # candidates tested together: 128 KB per int64 entry array
# Bases per batch of packed diagonals.  Where packed diagonals differ, their
# pivots are arrays, and dividing by an array costs more than by an int.
# Over 400 operations of each verify workload (seed 1), no batch held more
# than 3515 bases and `_split` never ran; on the five slowest level-loop
# counts of an earlier draw, _PACK = _BATCH changed the oracle time by 1-3 %.
_PACK = 1 << 12

# The tree's cost in units of one HNF candidate: per (node, factor) pair it
# expands and per child it is expected to build.  Fitted to per-level
# timings of both producers (one CPU, best of 5): a pair with k = 1 took
# 10-20 us and a hyperplane child 20-40 us at n = 2-4, where an HNF level
# took 45-150 us before its first candidate and 0.01-0.06 us per candidate.
# The pair term is below the time ratio because HNF's fixed cost per level
# is not charged.
_TREE_NODE = 1000
_TREE_CHILD = 1000


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the configured work budget."""


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex.

    Stars and bars: the parts are the gaps between 0, the parts - 1 cuts and
    total, and `itertools.combinations_with_replacement` yields cuts in lex order.
    """
    if parts < 1:
        raise ValueError("compositions need at least one part")
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, cuts + (total,), (0,) + cuts))


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
    """Is b*a = m*b for an integer m, per member of a batch of upper-triangular b?

    b and a are n x n nested lists.  Each entry is a Python int, the same
    for the whole batch, or an array over the batch; arrays broadcast
    together, and only the entries that are not the int 0 are visited.
    b[j][j] is the pivot of column j.  Row i of m is solved from row i of
    b*a by forward substitution, and the verdict, a bool or a boolean
    array, says that every division by a pivot was exact.
    """
    n = len(b)
    b_rows = [_nonzero(row) for row in b]
    a_rows = [_nonzero(row) for row in a]
    ok = True
    for i in range(n):
        acc = [0] * n
        for k, x in b_rows[i]:
            for j, y in a_rows[k]:
                acc[j] = _muladd(acc[j], x, y)
        for j in range(n):
            q = v = acc[j]
            d = b[j][j]
            if type(v) is int and v == 0:
                continue
            if type(d) is not int or d != 1:
                q = v // d
                exact = q * d == v
                if exact is False:
                    return False
                if exact is not True:
                    ok = exact if ok is True else ok & exact
            for l, x in b_rows[j]:
                if l > j:
                    acc[l] = _muladd(acc[l], q, x, sub=True)
        if ok is not True and not ok.any():
            return ok
    return ok


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
        ok = _invariance(b, a)
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


def _insert(w, r) -> None:
    """Add the row r to the lattice spanned by the upper-triangular basis w, in place.

    Column by column, r is reduced by the pivot row where the pivot divides
    its entry; elsewhere the two rows are replaced by the unimodular
    combination that puts their gcd on the diagonal and clears r there.  So
    the span of w and r never changes, and r ends as 0.
    """
    for j, row in enumerate(w):
        x = r[j]
        if not x:
            continue
        d = row[j]
        q, rest = divmod(x, d)
        if rest:
            s, t, g = igcdex(x, d)
            w[j] = [s * u + t * v for u, v in zip(r, row)]
            r = [d // g * u - x // g * v for u, v in zip(r, row)]
        else:
            r = [u - q * v for u, v in zip(r, row)]


def _hnf(w, modulus: int) -> tuple:
    """The row HNF, as a tuple of rows, of an upper-triangular basis w of a
    lattice that contains modulus*Z^n.

    Every entry right of a diagonal may be taken mod modulus: the rows stay
    in the lattice and the determinant does not change, so the lattice
    does not either.  Then each column j is reduced into [0, w[j][j]).
    """
    w = [[x % modulus if j > i else x for j, x in enumerate(row)] for i, row in enumerate(w)]
    for j in range(1, len(w)):
        pivot = w[j]
        for i in range(j):
            q = w[i][j] // pivot[j]
            if q:
                w[i][j:] = [(x - q * y) % modulus for x, y in zip(w[i][j:], pivot[j:])]
    return tuple(map(tuple, w))


def _times(v, cols, modulus: int) -> list[int]:
    """The row v times the matrix of columns cols, mod modulus."""
    return [sum(map(operator.mul, v, col)) % modulus for col in cols]


def _index(b) -> int:
    """The index of the lattice of an upper-triangular basis: its diagonal product."""
    return math.prod(row[i] for i, row in enumerate(b))


class _LatticeTree:
    """The invariant lattices of the levels the tree may still expand.

    levels[l] holds the HNF bases C, tuples of rows of Python ints, of the
    invariant lattices of level l.  factors holds (d, G) for each distinct
    monic irreducible factor g of degree d of the characteristic polynomial
    mod p, G the columns of g(A) mod p^top.  totals[e] is the candidate
    total of level e (from _level_totals), the HNF cost of level e, and
    counts[e] the number of invariant lattices of level e, for the levels
    found so far.
    """

    def __init__(self, a: IntMatrix, p: int, totals: list[int]):
        self.n = n = a.n_rows
        self.p = p
        self.top = top = len(totals) - 1
        self.totals = totals
        self.entries = a.entries
        self.cols = list(zip(*a.entries))
        self.keeping = top >= 2
        self.levels = {0: [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]}
        self.counts = [1]
        self.factors = []
        if self.keeping:
            chi = DDM([[x % p for x in row] for row in a.entries], (n, n), ZZ).charpoly()
            modulus = p ** top
            for g, _ in gf_factor([int(x) % p for x in chi], p, ZZ)[1]:
                power = poly_at_matrix(IntPoly([int(x) for x in reversed(g)]), a)
                self.factors.append((len(g) - 1, [tuple(x % modulus for x in col)
                                                  for col in zip(*power.entries)]))

    def _cost(self, nodes: int) -> int:
        """The cost, in HNF candidates, of expanding `nodes` (node, factor) pairs:
        each pair, and each child expected, the last count times its growth
        over the one before."""
        last, before = self.counts[-1], self.counts[-2] if len(self.counts) > 1 else 1
        return _TREE_NODE * nodes + _TREE_CHILD * (last * last // max(1, before))

    def cheaper(self, e: int) -> bool:
        """Would the tree produce level e for less than HNF enumeration?  Never at level 1."""
        return (self.keeping and e > 1 and self._cost(
            sum(len(self.levels.get(e - d, ())) for d, _ in self.factors)) < self.totals[e])

    def record(self, e: int, nodes) -> None:
        """Keep level e as found by count_at_exponent: its arrays of bases."""
        self.levels[e] = [tuple(map(tuple, b)) for batch in nodes for b in batch.tolist()]
        self.counts.append(len(self.levels[e]))

    def produce(self, e: int) -> int:
        """Count level e: the children of level e - d for each factor of degree d."""
        found = set()
        for d, g in self.factors:
            for c in self.levels.get(e - d, ()):
                found.update(self._children(c, e - d, d, g))
        for b in found:
            if _invariance(b, self.entries) is not True:
                raise RuntimeError(f"a child basis at level {e} is not invariant")
        self.levels[e] = list(found)
        self.counts.append(len(found))
        return self.counts[-1]

    def prune(self, e: int) -> None:
        """After level e, drop the levels no later level is a child of.

        Give up at the top level, or when expanding level e alone would cost
        at least all the HNF candidates left: then drop every kept level and
        stop keeping, and HNF enumeration produces every remaining level.
        """
        if e == self.top or (self._cost(len(self.levels[e]) * len(self.factors))
                             >= sum(self.totals[e + 1:])):
            self.keeping = False
            self.levels.clear()
            return
        reach = max(d for d, _ in self.factors)
        for l in [l for l in self.levels if l <= e - reach]:
            del self.levels[l]

    def _children(self, c, l: int, d: int, g) -> list:
        """The HNF bases of the children of the node c of level l for a factor
        of degree d, g the columns of g(A): the N with N0 = C*g(A) + pL <= N < L
        and L/N the field F_p[x]/(g), the hyperplanes of L/N0 over that field."""
        p = self.p
        modulus = p ** (l + 1)  # pL contains p^(l+1)*Z^n
        w = [[p * x for x in row] for row in c]
        for row in c:
            _insert(w, _times(row, g, modulus))
        n0 = _hnf(w, modulus)
        size, field = _index(n0) // p ** l, p ** d
        if size == field:
            return [n0]
        k = round(math.log(size, field))
        if k < 1 or field ** k != size:
            raise RuntimeError(f"L/N0 has order {size} at level {l}, not a power of {field}")
        # a basis q_1..q_k of L/N0 over the field, each with its images under
        # A^t, t < d: rows of C outside the span so far, until it is L
        basis, span = [], [list(row) for row in n0]
        for row in c:
            powers = [list(row)]
            for _ in range(1, d):
                powers.append(_times(powers[-1], self.cols, modulus))
            grown = [list(r) for r in span]
            for v in powers:
                _insert(grown, v)
            if _index(grown) < _index(span):
                basis.append(powers)
                span = grown
        if len(basis) != k or _index(span) != p ** l:
            raise RuntimeError(f"found {len(basis)} of {k} basis vectors of L/N0 at level {l}")
        # the hyperplane with normalized coordinates (0, .., 0, 1, a_(j+1), .., a_k)
        # is spanned over the field by q_i, i < j, and q_i - q_j*a_i(A), i > j
        children = []
        for j, q in enumerate(basis):
            for a in itertools.product(range(p), repeat=d * (k - 1 - j)):
                gens = [other[0] for other in basis[:j]]
                for i, other in enumerate(basis[j + 1:]):
                    coeffs = a[i * d:(i + 1) * d]
                    gens.append([(x - sum(map(operator.mul, coeffs, ys))) % modulus
                                 for x, *ys in zip(other[0], *q)])
                w = [list(r) for r in n0]
                for v in gens:
                    for _ in range(d):
                        _insert(w, v)
                        v = _times(v, self.cols, modulus)
                children.append(_hnf(w, modulus))
        want = (field ** k - 1) // (field - 1)
        if len(children) != want or len(set(children)) != want:
            raise RuntimeError(f"built {len(children)} hyperplanes ({len(set(children))} "
                               f"distinct) below a node of level {l}; expected {want}")
        if any(_index(b) != p ** (l + d) for b in children):
            raise RuntimeError(f"a child of a node of level {l} has index other than p^{l + d}")
        return children


def _reduced(a: IntMatrix, modulus: int) -> IntMatrix:
    """A with every entry a centred residue mod modulus, in (-modulus/2, modulus/2].

    The reduced matrix has no fewer zero entries than A and no larger entry;
    every sublattice containing modulus*Z^n is invariant under it exactly
    when under A.
    """
    def centred(x):
        r = x % modulus
        return r - modulus if 2 * r > modulus else r

    return IntMatrix([[centred(x) for x in row] for row in a.entries])


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
        g = math.gcd(*v)
        if v[-1] < 0:
            g = -g
        v = [x // g for x in v]
        l = k - 1
        for i in range(l):
            a, b = v[i], v[l]
            if not a:
                continue
            s, t, g = igcdex(a, b)
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
    """T = U*N*U^-1 strictly upper triangular, U unimodular, N = A - cI.

    Only for a matrix with one eigenvalue c, an integer: c = tr(A)/n and
    N^n = 0.  cI maps every lattice into itself, so T counts as A.  Every
    other matrix, and every scalar one, comes back as it is.  Raises
    RuntimeError unless U*N = T*U and U*U^-1 = I hold exactly.
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
    if (_product(u, nil) != _product(t, u)
            or _product(u, u_inv) != [[int(i == j) for j in range(n)] for i in range(n)]
            or any(x for i, row in enumerate(t) for x in row[:i + 1])):
        raise RuntimeError("the unimodular triangular conjugate failed its exact check")
    return IntMatrix(t)


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
    totals alone.  Otherwise one HNF enumeration of T' - dI, entries centred
    mod p^top, finds the invariant L' of levels 1..top, each basis's level
    is read off its diagonal, and both
    indices are gcds of maximal minors (`_minor_gcds`): g that of the rows
    of L' and T' - dI, and g / p^o that of those rows and t0.
    """
    m = a.n_rows - 1
    if not m:  # Z has one sublattice of each index, and it is invariant
        return [1] * (top + 1)
    d, *t0 = a.entries[0]
    block = _reduced(IntMatrix([[x - d * (i == j) for j, x in enumerate(row[1:])]
                                for i, row in enumerate(a.entries[1:])]), p ** top)
    rows = [r for r in block.entries if any(r)] + [t0]
    if not any(map(any, rows)):
        totals = itertools.islice(_level_totals(m, p), top + 1)
        return list(itertools.accumulate(p ** l * t for l, t in enumerate(totals)))
    nodes = [np.eye(m, dtype=np.int64)[None]]
    count_at_exponent(block, p, range(1, top + 1), nodes)
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
    running total passes it.  Both producers count A, or its triangular
    conjugate (`_triangular`), entries centred mod p^max_exp (`_reduced`),
    which has the same invariant lattices up to index p^max_exp.  A matrix
    whose first column is then zero below the diagonal is counted from its
    trailing block (`_peeled`);
    every other one level by level (`_level_counts`), each level e >= 1
    from HNF enumeration or from the tree of invariant lattices, whichever
    is cheaper.  Both producers are deterministic and self-check their work
    against closed-form totals.
    """
    if not sympy.isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if not isinstance(max_exp, int) or isinstance(max_exp, bool) or max_exp < 0:
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
