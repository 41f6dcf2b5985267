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
So when A = cI mod p^E (every 1 x 1 matrix, and every matrix when E = 0),
every sublattice up to index p^E is invariant, as under cI, and
`count_invariant_sublattices` returns the candidate totals it computed for
the budget before any other step.

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
conjugate, so every matrix with one eigenvalue that is not scalar mod p^E,
and the conjugate of a matrix at a simple root of chi mod p (below).
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
l + o(L') <= e.  One call of HNF enumeration (`count_at_exponent`)
produces the levels 1..E of T' - dI, entries centred mod p^E, which has the
invariant lattices of T', in one pass, and keeps the bases of their
invariant lattices; each basis's level is read off its diagonal, whose
entries must be powers of p.  The tree is not tried there: the block's
candidate totals, those of Z^(n-1), never exceed the totals of Z^n that the
budget admitted, and one pass packs all of the block's levels into shared
batches.  On the 209 enumerated blocks of the first 160 distinct
verify-dense operations of seeds 1-3, the pass took 33 ms and the level
loop 107 ms (best of 5, one CPU), though its cost rule sent 1050 of their
1475 levels to the tree.  g(L') is the gcd of the maximal minors of the
basis of L' stacked over the nonzero rows of that centred T' - dI (L'
contains p^E*V, so K is unchanged), and g(L') / p^o(L') that of the same
rows and t0 (`_minor_gcds`).  The minors are expanded column by column,
one batch of bases at a time, over the row subsets whose minor is not the
int 0.  They are int64 arrays at every level when m! * B^m < 2^62,
m = n - 1 and B the larger of p^E and the largest entry, and Python
integers otherwise.  A diagonal entry, g or g / p^o that is not a power of
p raises RuntimeError.  The cost is that of one enumeration of the block's
levels plus one pass of minors over their invariant lattices.  On the 40
operations of a traced verify-dense benchmark run (8 zero, 16 scalar and 16
nilpotent matrices, n = 2-4; one CPU of a 2-vCPU machine), the oracle ran
16 enumerations, one per nilpotent matrix, tested 14 864 candidates and
took 0.013 s; enumerating the levels of Z^n instead would test 7.8
million.

A matrix whose first column is still nonzero below the diagonal reaches the
peel another way when its characteristic polynomial chi has a simple root r
mod p, chi'(r) != 0 mod p, as each place of degree 1 at a split prime gives
(`_eigen_conjugate`):

* Newton steps lift r to a root of the integer chi mod p^E (Hensel's lemma:
  chi'(r) is a unit mod p).
* A - rI then has rank n - 1 mod p, so over the local ring Z/p^E it is
  equivalent to diag(1, .., 1, chi(r)) = diag(1, .., 1, 0): its right
  kernel is free of rank 1, spanned by a u with an entry 1 (`_kernel_line`).
* U, the identity with u put in column 0 (its column 0 first exchanged with
  the column of that entry), has det U = +-1, and T = U^-1*A*U mod p^E has
  first column r*e_0.
* A lattice of index p^e <= p^E contains p^E*Z^n, so the lattices up to that
  index are the subgroups of (Z/p^E)^n.  x -> x*U permutes them and keeps
  their index, and L is A-invariant exactly when L*U is T-invariant, since
  A*U = U*T mod p^E: the argument of `_triangular`, with GL_n(Z/p^E) in
  place of GL_n(Z).

chi(r) = 0, A*u = r*u, U*U^-1 = I and A*U = U*T, all mod p^E, and T[i][0] = 0
for i >= 1 are checked exactly.  chi is that of the reduced matrix, computed
once; the root comes from its factors mod p, which the tree
(`_LatticeTree`) finds and keeps, and the tree forms no g(A) until it
produces a level, so a count the peel takes forms none.  Below E = 2 the
tree factors nothing and no count is peeled at a root.

The peel enumerates the whole (n - 1)-block, so it is taken only when that
costs less, in HNF candidates (`_peel_pays`): the block's candidate totals
of levels 1..E plus one _HNF_LEVEL, against E times the cheaper way to
produce level 1, its candidate total plus _HNF_LEVEL or the tree's exact
cost of it.  On 58 matrices with a simple root that reach the level loop
(six random dense ones, entries in [-9, 9], at each of 15 (n, p, E) with
n = 2-4, and two cycles of verify-sparse; best of 3, one CPU, two runs),
the rule peeled 41, each 1.4-23 times faster than the loop; of the 17 it
left to the loop, the peel would have been faster on 9-10, by 1-61 %.  The
split classes of verify-sparse, x^2+1 at 13 and 17 and with huge entries
at 5, peel a 1 x 1 block, E candidates and one _HNF_LEVEL, against E times
the 6000 the tree charges for its two lines; its cubics with a root at 7
and at 19 keep the loop (12 465 against 9000, 12 401 against 6000).  A
dense 6 x 6 matrix at p = 7, E = 3 would enumerate 1.7*10^10 block
candidates.

HNF enumeration batches a whole level, not one diagonal at a time
(`_batches`): one rule cuts each diagonal into runs of at most _BATCH bases
(`_runs`), and consecutive runs are packed, in order, into batches of at
most _PACK bases, where an entry is an array only where the batch's bases
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
    result is reduced to HNF (`_floor`, `_insert`, `_hnf`).  L/N0 =
    (L/pL)/(image of g(M)), M = C*A*C^-1, is a vector space over the
    field, of dimension k >= 1.  When [L : N0] = p^d, k = 1 and N0 is the
    only child; so it was for all 4038 (node, factor) pairs of the first
    160 verify-sparse operations of seeds 1-3.  Otherwise a basis
    q_1..q_k over the field is read off the rows of C, and the
    (p^dk - 1)/(p^d - 1) hyperplanes, with normalized coordinates
    (0, .., 0, 1, a_(j+1), .., a_k), are spanned over N0 by q_i, i < j,
    and q_i - q_j*a_i(A), i > j, with their images under A^t, t < d.
  - chi mod p is factored once per count, in Python integers: the
    distinct-degree kernel of `linalg` gives, for each d, the product of
    the factors g of degree d (chi need not be squarefree mod p), and
    `_equal_degree` splits it.  Each g(A) is formed once, mod p^E.
  - Self-checks raise RuntimeError: L/N0 must have order a power of p^d;
    the hyperplanes built below a node must number (p^dk - 1)/(p^d - 1)
    and be distinct, each of index p^(l+d); and every child of a level
    must pass the invariance kernel.

The tree works in Python integers, one node at a time: its levels hold a
few bases where it wins, and its bases have entries below p^E however
large, so it has no int64 bound.  Costs are in units of one HNF
candidate.  HNF enumeration of a level costs its candidate total plus
_HNF_LEVEL, what a level costs before its first candidate.  The tree's
cost charges each (node, factor) pair it expands and each child it is
expected to build.  At level 1 the children are counted exactly: only the
factors g of degree 1 have children there, the (p^k - 1)/(p - 1) lines of
Z^n/N0 = F_p^k, k = n - rank(g(A) mod p), and k = 1 when g divides chi mod p
once.  At a later level they are estimated as the last count times its
growth over the one before.  So every decision reads counts and never
clocks.  The tree produces a level when expanding the levels e - d costs
less than enumerating it.  It stops keeping levels at the top, or once
expanding the last one alone costs at least the enumeration of all levels
left, their candidate totals and _HNF_LEVEL for each.  A kept level, from
either producer, holds the HNF bases of its invariant lattices as tuples
of rows.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
import sympy
from sympy.core.intfunc import igcdex
from sympy.polys.domains import ZZ
from sympy.polys.matrices.ddm import DDM

from .linalg import (
    _INT64_SAFE,
    IntMatrix,
    IntPoly,
    _abs_max,
    _gf_divmod,
    _gf_gcd,
    _gf_mulmod,
    _gf_powmod,
    _gf_sub,
    _product,
    distinct_degree,
    poly_at_matrix,
)

DEFAULT_MAX_N = 4
DEFAULT_MAX_CANDIDATES = 120_000_000

_BATCH = 1 << 14  # candidates tested together: 128 KB per int64 entry array
# Bases per batch of packed runs.  Where packed diagonals differ, their
# pivots are arrays, and dividing by an array costs more than by an int.
# Over the first 160 distinct operations of seeds 1-3, verify-sparse held up
# to 4913 bases in a batch (60 of 1401 batches, each one diagonal alone, were
# past _PACK) and verify-dense up to 3515; no diagonal of either was cut.
# On the five slowest level-loop counts of an earlier draw, _PACK = _BATCH
# changed the oracle time by 1-3 %.
_PACK = 1 << 12

# The producers' costs in units of one HNF candidate: an HNF level pays
# _HNF_LEVEL on top of its candidate total, and the tree pays per (node,
# factor) pair it expands and per child it is expected to build.  Fitted to
# per-level timings of both producers (one CPU, best of 5, n = 2-4): an HNF
# level that keeps its bases took 73, 128 and 208 us before its first
# candidate at n = 2, 3 and 4, and 0.007, 0.018 and 0.051 us a candidate; a
# pair with k = 1, which builds one child, took 18, 32 and 48 us, and each
# further hyperplane child 27, 31 and 38 us.  At every n the fixed cost is
# about four such pairs, so _HNF_LEVEL is four times _TREE_NODE + _TREE_CHILD.
# That sum is 1.2-1.7 times a pair's time in candidates at n = 2-3 and three
# times it at n = 4, so the dense 4 x 4 levels stay on HNF.
_HNF_LEVEL = 12000
_TREE_NODE = 1000
_TREE_CHILD = 2000


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


def _hnf_dtype(n: int, p: int, e: int, abs_max: int):
    """The dtype HNF enumeration of level e runs in: int64 when every
    intermediate provably fits, else object."""
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


def _runs(n, diags):
    """The bases of each diagonal in runs of at most _BATCH, all cut by one rule.

    The longest tail of free positions whose combinations fit in _BATCH runs
    in full; the position before it, if any, takes stretches of as many
    consecutive values as fit, and the positions before that are fixed.
    Yields (diag, size, spec): in the run's digits viewed as (-1, m, w), the
    position pos of each (pos, v, m, w) in spec takes the values v..v+m-1,
    each w times in a row.
    """
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in diags:
        free = [(pos, diag[pos[1]]) for pos in positions if diag[pos[1]] > 1]
        tail = []
        size = 1
        while free and size * free[-1][1] <= _BATCH:
            pos, r = free.pop()
            tail.append((pos, 0, r, size))
            size *= r
        if not free:
            yield diag, size, tail
            continue
        pos, r = free.pop()
        step = _BATCH // size
        for lead in itertools.product(*(range(d) for _, d in free)):
            for h in range(0, r, step):
                m = min(step, r - h)
                k = m * size
                fixed = [(q, v, 1, k) for (q, _), v in zip(free, lead)]
                yield diag, k, fixed + [(pos, h, m, size)] + tail


def _batches(n, diags, dtype):
    """The upper-triangular bases of the diagonals diags, in order, entrywise.

    For each diagonal, the entries at its free positions, the upper (i, j)
    with diag[j] > 1 row by row, run over [0, diag[j]) in mixed radix, the
    last position fastest; every other entry is 0.  Yields (b, size):
    b[i][j] is an int where the whole batch agrees, else a 1-D array of the
    batch's size.  Consecutive runs (`_runs`) are packed into batches of at
    most _PACK bases, or of one run alone when it has more.
    """
    group = []
    filled = 0
    for run in _runs(n, diags):
        if group and filled + run[1] > _PACK:
            yield _packed(n, group, filled, dtype), filled
            group, filled = [], 0
        group.append(run)
        filled += run[1]
    if group:
        yield _packed(n, group, filled, dtype), filled


def _packed(n, runs, total, dtype):
    """The bases of the runs (diag, size, spec), one after another, entrywise."""
    sizes = [size for _, size, _ in runs]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        d = [diag[i] for diag, _, _ in runs]
        b[i][i] = d[0] if d.count(d[0]) == len(d) else np.repeat(np.array(d, dtype=dtype), sizes)
    held = {}  # per free position, each run's value there, None where the run varies
    for _, _, spec in runs:
        for pos, v, m, _ in spec:
            held.setdefault(pos, []).append(None if m > 1 else v)
    slot = {}
    for (i, j), vals in held.items():
        vals += [0] * (len(runs) - len(vals))  # 0 in the runs where (i, j) is not free
        if None in vals or vals.count(vals[0]) < len(vals):
            slot[i, j] = len(slot)
        else:
            b[i][j] = vals[0]
    digits = np.zeros((len(slot), total), dtype=dtype)
    start = 0
    for _, size, spec in runs:
        # the run's mixed radix, written through views of its slice
        for pos, v, m, w in spec:
            k = slot.get(pos)
            if k is not None:
                digits[k, start:start + size].reshape(-1, m, w)[...] = np.arange(v, v + m)[:, None]
        start += size
    for (i, j), k in slot.items():
        b[i][j] = digits[k]
    return b


def _count_numpy(a, diags, dtype, nodes=None):
    """Vectorized enumeration of one level, the diagonals diags in order, in dtype.

    a is the matrix as nested lists of ints.  Returns (invariant count,
    candidates visited).  When nodes is a list, the invariant bases are
    appended to it, one array per batch.
    """
    n = len(a)
    count = 0
    visits = 0
    for b, size in _batches(n, diags, dtype):
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
    dtype = _hnf_dtype(n, p, levels[-1], _abs_max(a.entries))
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


def _mulmod(x, y, modulus: int) -> list[list[int]]:
    """The product of two matrices given as rows, mod modulus."""
    cols = list(zip(*y))
    return [_times(row, cols, modulus) for row in x]


def _index(b) -> int:
    """The index of the lattice of an upper-triangular basis: its diagonal product."""
    return math.prod(row[i] for i, row in enumerate(b))


def _equal_degree(part, d: int, p: int) -> list:
    """The monic irreducible factors of part mod p, a product of distinct
    ones of degree d (a part the distinct-degree kernel yields).

    Deterministic equal-degree splitting (Cantor-Zassenhaus): for u = x + t,
    t = 0..p-1, then the monic u of degree 2, 3, ..., 2d in a fixed order,
    w(u) is u^((p^d - 1)/2) - 1 for odd p, and the trace u + u^2 + u^4 +
    ... + u^(2^(d-1)) for p = 2, mod part.  On each factor g, u is an
    element of F_(p^d), and g divides w(u) exactly when u is a nonzero square
    there (odd p) or has trace 0 (p = 2).  So gcd(part, w(u)) splits part
    unless every factor answers alike; some monic u of degree 2d takes any
    pair of values on two factors (CRT), so the split always comes.
    """
    if len(part) - 1 == d:
        return [part]
    for k in range(1, 2 * d + 1):
        for low in itertools.product(range(p), repeat=k):
            u = [*low, 1]
            if p == 2:
                w = s = _gf_divmod(u, part, p)[1]
                for _ in range(d - 1):
                    s = _gf_mulmod(s, s, part, p)
                    w = _gf_sub(w, s, p)  # = w + s mod 2
            else:
                w = _gf_sub(_gf_powmod(u, (p ** d - 1) // 2, part, p), [1], p)
            g = _gf_gcd(part, w, p)
            if 1 < len(g) < len(part):
                return (_equal_degree(g, d, p)
                        + _equal_degree(_gf_divmod(part, g, p)[0], d, p))
    raise RuntimeError(f"no u of degree <= {2 * d} split a product of degree-{d} factors mod {p}")


class _LatticeTree:
    """The invariant lattices of the levels the tree may still expand.

    levels[l] holds the HNF bases C, tuples of rows of Python ints, of the
    invariant lattices of level l.  chi is the characteristic polynomial of
    A over Z, lowest coefficient first, and factors holds (d, g) for each
    distinct monic irreducible factor g of degree d of chi mod p; actions
    holds (d, G) for the same factors, G the columns of g(A) mod p^top,
    formed on first use, so that a count the peel takes forms none.  lines
    is the number of invariant lattices of level 1, the children of Z^n for
    the factors of degree 1: (p^k - 1)/(p - 1) for each, k = n - rank(g(A)
    mod p), and root is the first r with x - r a factor and chi'(r) != 0 mod
    p, or None.  totals[e] is the candidate total of level e (from
    _level_totals), and counts[e] the number of invariant lattices of level
    e, for the levels found so far.  Below level 2 the tree keeps nothing
    and factors nothing.
    """

    def __init__(self, a: IntMatrix, p: int, totals: list[int]):
        self.n = n = a.n_rows
        self.p = p
        self.a = a
        self.top = len(totals) - 1
        self.totals = totals
        self.entries = a.entries
        self.cols = list(zip(*a.entries))
        self.keeping = self.top >= 2
        self.levels = {0: [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]}
        self.counts = [1]
        self.chi = None
        self.factors = []
        self.actions = None
        self.lines = 0
        self.root = None
        if self.keeping:
            chi = DDM([list(row) for row in a.entries], (n, n), ZZ).charpoly()
            self.chi = chi = [int(x) for x in reversed(chi)]
            for d, part in distinct_degree(chi, p):
                for g in _equal_degree(part, d, p):
                    self.factors.append((d, g))
                    if d == 1:
                        # the children of Z^n for g = x - r are the (p^k - 1)/(p - 1)
                        # lines of Z^n/N0 = F_p^k, and 1 <= k <= m, the multiplicity
                        # of g: k = 1 when m = 1, that is when chi'(r) != 0 mod p;
                        # N0 = pZ^n + Z^n(A - rI) needs A - rI mod p alone
                        r = -g[0] % p
                        if _at(chi, r, p)[1]:
                            self.lines += 1
                            if self.root is None:
                                self.root = r
                        else:
                            shifted = [[(x - r * (i == j)) % p for i, x in enumerate(col)]
                                       for j, col in enumerate(self.cols)]
                            self.lines += (_index(self._floor(self.levels[0][0], 0, shifted))
                                           - 1) // (p - 1)

    def _cost(self, nodes: int, e: int) -> int:
        """The cost, in HNF candidates, of producing level e by expanding
        `nodes` (node, factor) pairs: each pair, and each child expected.
        Level 1's are counted exactly (lines); a later level's are estimated
        as the last count times its growth over the one before."""
        if e == 1:
            children = self.lines
        else:
            last, before = self.counts[-1], self.counts[-2] if len(self.counts) > 1 else 1
            children = last * last // max(1, before)
        return _TREE_NODE * nodes + _TREE_CHILD * children

    def level_cost(self, e: int) -> int:
        """The cost of producing level e from the levels kept so far."""
        return self._cost(sum(len(self.levels.get(e - d, ())) for d, _ in self.factors), e)

    def cheaper(self, e: int) -> bool:
        """Would the tree produce level e for less than HNF enumeration, whose
        cost is the level's candidate total and _HNF_LEVEL?"""
        return self.keeping and self.level_cost(e) < self.totals[e] + _HNF_LEVEL

    def record(self, e: int, nodes) -> None:
        """Keep level e as found by count_at_exponent: its arrays of bases."""
        self.levels[e] = [tuple(map(tuple, b)) for batch in nodes for b in batch.tolist()]
        self.counts.append(len(self.levels[e]))

    def produce(self, e: int) -> int:
        """Count level e: the children of level e - d for each factor of degree d."""
        if self.actions is None:
            modulus = self.p ** self.top
            self.actions = [(d, [tuple(x % modulus for x in col)
                                 for col in zip(*poly_at_matrix(IntPoly(g), self.a).entries)])
                            for d, g in self.factors]
        found = set()
        for d, g in self.actions:
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
        at least what HNF enumeration of every level left costs, their
        candidates and _HNF_LEVEL for each: then drop every kept level and
        stop keeping, and HNF enumeration produces every remaining level.
        """
        if e == self.top or (self._cost(len(self.levels[e]) * len(self.factors), e + 1)
                             >= sum(self.totals[e + 1:]) + _HNF_LEVEL * (self.top - e)):
            self.keeping = False
            self.levels.clear()
            return
        reach = max(d for d, _ in self.factors)
        for l in [l for l in self.levels if l <= e - reach]:
            del self.levels[l]

    def _floor(self, c, l: int, g) -> tuple:
        """The HNF basis of N0 = C*g(A) + pL for the node c of level l, g the
        columns of g(A)."""
        modulus = self.p ** (l + 1)  # pL contains p^(l+1)*Z^n
        w = [[self.p * x for x in row] for row in c]
        for row in c:
            _insert(w, _times(row, g, modulus))
        return _hnf(w, modulus)

    def _children(self, c, l: int, d: int, g) -> list:
        """The HNF bases of the children of the node c of level l for a factor
        of degree d, g the columns of g(A): the N with N0 = C*g(A) + pL <= N < L
        and L/N the field F_p[x]/(g), the hyperplanes of L/N0 over that field."""
        p = self.p
        modulus = p ** (l + 1)
        n0 = self._floor(c, l, g)
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
    other matrix comes back as it is.  Raises RuntimeError unless U*N = T*U
    and U*U^-1 = I hold exactly.
    """
    n = a.n_rows
    c, r = divmod(sum(a.entries[i][i] for i in range(n)), n)
    if r:
        return a
    nil = [[x - c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a.entries)]
    # tr(N^2) = 0 is necessary for N^n = 0, and costs no product
    if sum(x * nil[j][i] for i, row in enumerate(nil) for j, x in enumerate(row)):
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


def _at(f, x: int, modulus: int) -> tuple[int, int]:
    """(f(x), f'(x)) mod modulus by Horner's rule, f a list of ints lowest
    coefficient first."""
    value = slope = 0
    for c in reversed(f):
        slope = (slope * x + value) % modulus
        value = (value * x + c) % modulus
    return value, slope


def _kernel_line(m, p: int, modulus: int) -> tuple[list[int], int]:
    """(u, f) with m*u = 0 mod modulus and u[f] = 1, for a square m of rank
    n - 1 mod p whose right kernel mod modulus, a power of p, is free of rank 1.

    Gauss-Jordan elimination mod modulus, column by column, on pivots that
    are units; f is the one column left without one.  Each pivot row then
    reads x_j + c*x_f = 0, so u_j = -c.  The row left over is 0 mod p, and 0
    mod modulus when the kernel has rank 1; the caller checks A*u = r*u.
    Raises RuntimeError unless exactly one column lacks a unit pivot.
    """
    n = len(m)
    rows = [[x % modulus for x in row] for row in m]
    pivots = []
    for j in range(n):
        k = len(pivots)
        i = next((i for i in range(k, n) if rows[i][j] % p), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        inverse = pow(rows[k][j], -1, modulus)
        rows[k] = [x * inverse % modulus for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[j]:
                rows[i] = [(x - row[j] * y) % modulus for x, y in zip(row, rows[k])]
        pivots.append(j)
    free = [j for j in range(n) if j not in pivots]
    if len(free) != 1:
        raise RuntimeError(f"A - rI has rank {len(pivots)} mod {p}, not {n - 1}")
    f = free[0]
    u = [int(j == f) for j in range(n)]
    for row, j in zip(rows, pivots):
        u[j] = -row[f] % modulus
    return u, f


def _eigen_conjugate(a: IntMatrix, chi, r: int, p: int, top: int) -> IntMatrix:
    """T = U^-1*A*U mod p^top, centred, with first column r'*e_0 and det U = +-1.

    r is a root of chi, the characteristic polynomial of A, mod p with
    chi'(r) != 0 mod p.  Newton steps r -> r - chi(r)/chi'(r), each mod the
    square of the last modulus, lift it to r' with chi(r') = 0 mod q = p^top.
    The right kernel of A - r'I mod q is then free of rank 1, spanned by u
    with u[f] = 1 (`_kernel_line`).  U is the identity with columns 0 and f
    exchanged and u put in column 0; with w = u - e_f, it is I + w*e_f^t with
    those columns exchanged, and U^-1 is I - w*e_f^t with those rows
    exchanged, since w[f] = 0.  Raises RuntimeError unless chi(r') = 0,
    A*u = r'*u, U*U^-1 = I and A*U = U*T, all mod q, and T[i][0] = 0 for
    i >= 1.
    """
    n, q = a.n_rows, p ** top
    modulus = p
    while modulus < q:
        modulus = min(modulus * modulus, q)
        value, slope = _at(chi, r, modulus)
        r = (r - value * pow(slope, -1, modulus)) % modulus
    if _at(chi, r, q)[0]:
        raise RuntimeError(f"the lifted root {r} is not a root of chi mod {p}^{top}")
    u, f = _kernel_line([[x - r * (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(a.entries)], p, q)
    if _mulmod(a.entries, [[x] for x in u], q) != [[r * x % q] for x in u]:
        raise RuntimeError(f"u is not an eigenvector of A for {r} mod {p}^{top}")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    conj, inverse = [row[:] for row in eye], [row[:] for row in eye]
    for i, x in enumerate(u):
        if i != f:  # w = u - e_f
            conj[i][f] += x
            inverse[i][f] -= x
    for row in conj:
        row[0], row[f] = row[f], row[0]
    inverse[0], inverse[f] = inverse[f], inverse[0]
    moved = _mulmod(a.entries, conj, q)
    t = [[x - q if 2 * x > q else x for x in row]  # centred, as by _reduced
         for row in _mulmod(inverse, moved, q)]
    if (_mulmod(conj, inverse, q) != eye or moved != _mulmod(conj, t, q)
            or any(row[0] for row in t[1:])):
        raise RuntimeError(f"the conjugate by U in GL_n(Z/{p}^{top}) failed its exact check")
    return IntMatrix(t)


def _peel_pays(tree: _LatticeTree) -> bool:
    """Is peeling at tree.root cheaper than the level loop, in HNF candidates?

    The peel enumerates levels 1..top of Z^(n-1) in one pass: their
    candidate totals and one _HNF_LEVEL.  The level loop is estimated as top
    levels, each costing at least what level 1 does: its candidate total and
    _HNF_LEVEL, or the tree's exact cost of it, whichever is less.
    """
    block = sum(itertools.islice(_level_totals(tree.n - 1, tree.p), 1, tree.top + 1))
    return block + _HNF_LEVEL < tree.top * min(tree.totals[1] + _HNF_LEVEL, tree.level_cost(1))


def _level_counts(tree: _LatticeTree) -> list[int]:
    """The counts of levels 0..top of the sublattices invariant under the
    tree's matrix A, top = tree.top.

    Each level e >= 1 comes from HNF enumeration or from the tree, whichever
    is cheaper.
    """
    a, p, top = tree.a, tree.p, tree.top
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
    L' + V(T' - dI).  One HNF enumeration of T' - dI, entries centred mod
    p^top, finds the invariant L' of levels 1..top, each basis's level is
    read off its diagonal, and both indices are gcds of maximal minors
    (`_minor_gcds`): g that of the rows of L' and T' - dI, and g / p^o that
    of those rows and t0.  a is a triangular conjugate or a conjugate at a
    simple root mod p (`_eigen_conjugate`), reduced mod p^top; no matrix
    that is scalar mod p^top gets here (`count_invariant_sublattices`), so
    n >= 2 and top >= 1.
    """
    m = a.n_rows - 1
    d, *t0 = a.entries[0]
    block = _reduced(IntMatrix([[x - d * (i == j) for j, x in enumerate(row[1:])]
                                for i, row in enumerate(a.entries[1:])]), p ** top)
    rows = [r for r in block.entries if any(r)] + [t0]
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
    running total passes it.  Then A = cI mod p^max_exp, under which every
    sublattice up to index p^max_exp is invariant, counts as those candidate
    totals.  Otherwise A, or its triangular conjugate (`_triangular`), is
    counted with entries centred mod p^max_exp (`_reduced`), which has the
    same invariant lattices up to index p^max_exp.  A matrix whose first
    column is then zero below the diagonal is counted from its trailing
    block (`_peeled`).  So is one whose characteristic polynomial has a
    simple root mod p, conjugated in GL_n(Z/p^max_exp) to first column
    r*e_0 (`_eigen_conjugate`), when the block costs less than the level
    loop by `_peel_pays`.  Every other one is counted level by level
    (`_level_counts`), each level e >= 1 from HNF enumeration or from the
    tree of invariant lattices, whichever is cheaper.  Both producers are
    deterministic and self-check their work against closed-form totals.
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
    c = a.entries[0][0]
    if not any((x - c * (i == j)) % p ** max_exp for i, row in enumerate(a.entries)
               for j, x in enumerate(row)):
        return tuple(totals)
    a = _reduced(_triangular(a), p ** max_exp)
    if not any(row[0] for row in a.entries[1:]):
        return tuple(_peeled(a, p, max_exp))
    tree = _LatticeTree(a, p, totals)
    if tree.root is not None and _peel_pays(tree):
        return tuple(_peeled(_eigen_conjugate(a, tree.chi, tree.root, p, max_exp), p, max_exp))
    return tuple(_level_counts(tree))
