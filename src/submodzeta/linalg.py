"""Exact integer linear algebra.

Dense matrices over Z, integer polynomials, resultants, ranks, left kernels
and minimal polynomials.  sympy gives resultants and polynomial products;
one fraction-free row reduction gives ranks and linear relations among rows,
which left kernels and minimal polynomials are read off.  A left kernel
basis is (rows, den): integer rows over one denominator, rows / den.

Entries are arbitrary-precision ints, and every answer is exact.  Matrix
products run in numpy int64 where a bound proves that no sum can overflow,
and in Python ints otherwise.  minpoly(a) is the first relation among the
powers of A, the minimal polynomial mu.  minpoly(a, v) is the first among
v, vA, vA^2, ..., a divisor mu_v of mu that carries no certificate of its
own; canonical.edv_context tells: mu_v is mu exactly when its primary
kernels fill the whole space.

Convention used everywhere: vectors are rows and matrices act on the
right, x -> x*A.  "Kernel" always means the left kernel {x : x*A = 0}.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, repeat, zip_longest

import numpy as np
from sympy import ZZ
from sympy.polys.densearith import dup_mul, dup_pow
from sympy.polys.euclidtools import dup_resultant


# ---------------------------------------------------------------------------
# polynomials over Z


class IntPoly:
    """Integer polynomial; coefficients lowest degree first, trailing zeros stripped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return _from_dup(dup_mul(_dup(self), _dup(other), ZZ))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _from_dup(dup_pow(_dup(self), k, ZZ))

    def derivative(self) -> IntPoly:
        return IntPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def to_json(self) -> list[int]:
        return list(self._coeffs)

    @classmethod
    def from_json(cls, data) -> IntPoly:
        if not isinstance(data, (list, tuple)):
            raise ValueError("polynomial JSON must be an array of integers")
        return cls(data)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"IntPoly({list(self._coeffs)!r})"

    def __str__(self):
        return self._layout("x^{}", "*")

    def latex(self) -> str:
        return self._layout("x^{{{}}}", "")

    def _layout(self, power: str, times: str) -> str:
        """Terms from the top degree down; x^k through the `power` template,
        and `times` between a coefficient and its power of x."""
        if not self._coeffs:
            return "0"
        out = ""
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpart = "x" if k == 1 else power.format(k)
                body = xpart if mag == 1 else f"{mag}{times}{xpart}"
            if not out:
                out = body if c > 0 else f"-{body}"
            else:
                out += f" {'-' if c < 0 else '+'} {body}"
        return out


def _dup(f: IntPoly) -> list[int]:
    return list(reversed(f.coeffs))  # sympy's dense form, highest degree first


def _from_dup(coeffs) -> IntPoly:
    # int(): with gmpy2 installed, sympy's ZZ elements are mpz
    return IntPoly([int(c) for c in reversed(coeffs)])


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of two integer polynomials, the determinant of their Sylvester
    matrix.  sympy's dup_resultant returns Res(g, f) when deg f < deg g, so
    the higher-degree one goes first, and Res(f, g) = (-1)^(deg f deg g) Res(g, f).
    """
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    if m < n:
        return (-1) ** (m * n) * int(dup_resultant(_dup(g), _dup(f), ZZ))
    return int(dup_resultant(_dup(f), _dup(g), ZZ))


# ---------------------------------------------------------------------------
# matrices

# int64 arithmetic runs only where a bound on every intermediate stays below
# this: for products here, and for the oracle's actions (oracle._action_dtype).
_INT64_SAFE = 1 << 62


def _abs_max(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0)


def _product(x, y) -> list[list[int]]:
    """The exact product of two integer matrices given as sequences of rows.

    Every entry of x*y, and every partial sum of it, is at most
    n * max|x| * max|y| in absolute value, n the inner dimension.  When that
    is below 2^62, with a zero factor counted as 1 so that the other one
    still fits, numpy's int64 matmul cannot overflow; Python ints are used
    otherwise.
    """
    if x and y and len(y) * max(1, _abs_max(x)) * max(1, _abs_max(y)) < _INT64_SAFE:
        return np.matmul(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)).tolist()
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


class IntMatrix:
    """Dense matrix over Z; immutable, rows are tuples."""

    __slots__ = ("_rows", "_n_rows", "_n_cols")

    def __init__(self, rows):
        # from a list, so the tuple is allocated at its final size: one built
        # from a generator is resized, and the resized tuples pile up on
        # the interpreter's free lists until a full garbage collection
        try:
            rows = tuple([tuple(r) for r in rows])
        except TypeError:
            raise ValueError("each row must be a list of integers") from None
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"integer entries required, got {x!r}")
        self._rows = rows
        self._n_rows = len(rows)
        self._n_cols = width

    @classmethod
    def _trusted(cls, rows) -> IntMatrix:
        """The matrix of rectangular rows of ints, built without checking them.

        For products the package computed itself, whose entries are ints by
        construction; everything else goes through the checking constructor.
        """
        m = object.__new__(cls)
        m._rows = rows = tuple([tuple(r) for r in rows])
        m._n_rows = len(rows)
        m._n_cols = len(rows[0]) if rows else 0
        return m

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def is_square(self) -> bool:
        return self._n_rows == self._n_cols

    @classmethod
    def from_json(cls, obj) -> IntMatrix:
        """Parse {"n": int, "entries": [[...], ...]}; must be square of size n."""
        if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
            raise ValueError('matrix JSON must look like {"n": int, "entries": [[...], ...]}')
        n = obj["n"]
        entries = obj["entries"]
        if not isinstance(n, int) or not isinstance(entries, list):
            raise ValueError("malformed matrix JSON")
        if isinstance(n, bool):
            raise ValueError(f"integer n required, got {n!r}")
        m = cls(entries)
        if m.n_rows != n or m.n_cols != n:
            raise ValueError(f"matrix JSON says n={n} but entries are {m.n_rows}x{m.n_cols}")
        return m

    def to_json(self) -> dict:
        return {"n": self._n_rows, "entries": [list(r) for r in self._rows]}

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self._n_cols != other._n_rows:
            raise ValueError("shape mismatch in matrix product")
        return IntMatrix._trusted(_product(self._rows, other._rows))

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._rows]!r})"


def poly_at_matrix(f: IntPoly, a: IntMatrix) -> IntMatrix:
    """Evaluate f at a square integer matrix by Horner."""
    if not a.is_square:
        raise ValueError("poly_at_matrix wants a square matrix")
    n = a.n_rows
    coeffs = f.coeffs
    result = [[0] * n for _ in range(n)]
    for k, c in enumerate(reversed(coeffs)):
        if k == 1:
            # the first step multiplies a scalar matrix: no product needed
            result = [[coeffs[-1] * x for x in row] for row in a.entries]
        elif k:
            result = _product(result, a.entries)
        for i in range(n):
            result[i][i] += c
    return IntMatrix._trusted(result)


# ---------------------------------------------------------------------------
# fraction-free elimination


def _eliminate(row: list[int], echelon) -> list[int]:
    """row reduced against echelon by fraction-free (Bareiss) elimination.

    echelon lists (col, pivot row) pairs, each reduced the same way against
    the pairs before it, nonzero at col, and padded with zeros when shorter
    than row, which may be changed in place.  Each step zeroes the pivot's
    col, deletes it, and divides exactly by the pivot before: entries stay minors.
    """
    prev = 1
    for col, pivot in echelon:
        p, c = pivot[col], row[col]
        if c:
            row = [(p * x - c * y) // prev for x, y in zip_longest(row, pivot, fillvalue=0)]
        elif p != prev:  # the same step with c = 0
            row = [p * x // prev for x in row]
        del row[col]
        prev = p
    return row


def _relations(rows):
    """For each row i, None if it is independent of the rows before it, else
    the relation c, sum(c[j] * rows[j]) = 0 over rows 0..i with c[i] != 0.

    Row i, followed by its combination coordinates (1 at i), is reduced
    against the independent rows before it, with pivots from its own
    entries only; when those all reduce to zero, the rest is c.  rows may
    be lazy: each is read after the answer for the one before is taken.
    """
    echelon = []
    for i, row in enumerate(rows):
        row = _eliminate(list(row) + [0] * i + [1], echelon)
        width = len(row) - i - 1
        col = next((k for k in range(width) if row[k]), None)
        if col is None:
            yield row[width:]
        else:
            echelon.append((col, row))
            yield None


def kernel_dim(m: IntMatrix) -> int:
    """Dimension of the left kernel {x : x*m = 0}: the rows that reduce to
    zero, as in _relations but without the combination coordinates."""
    echelon = []
    for row in m.entries:
        row = _eliminate(list(row), echelon)
        col = next((k for k, x in enumerate(row) if x), None)
        if col is not None:
            echelon.append((col, row))
    return m.n_rows - len(echelon)


# ---------------------------------------------------------------------------
# left kernels


def kernel_basis(m: IntMatrix) -> tuple[list[list[int]], int]:
    """Basis of the left kernel {x : x*m = 0}, as integer rows over one denominator.

    Returns (rows, den) with den >= 1 the least common denominator of the
    basis, which is rows / den.  The basis has one vector per row i of m
    that depends on the rows above it: the relation c among rows 0..i,
    scaled to 1 at i.  It is 0 at every other dependent row and supported
    on the independent rows above i, so row r of the result is den at its
    own coordinate, which is its last nonzero entry.
    """
    relations = list(filter(None, _relations(m.entries)))
    den = math.lcm(1, *(c[-1] // math.gcd(*c) for c in relations))
    return [[x * den // c[-1] for x in c] + [0] * (m.n_rows - len(c)) for c in relations], den


# ---------------------------------------------------------------------------
# minimal polynomials


def minpoly(a: IntMatrix, v=None) -> IntPoly:
    """The minimal polynomial mu of a, or mu_v, the monic generator of
    {g : v * g(a) = 0}, when a start vector v is given.

    mu is the first relation among I, a, a^2, ..., each flattened to n^2
    entries; mu_v the first among v, v a, v a^2, ....  mu_v divides mu, and
    the caller has to certify that it is mu: canonical.edv_context asks for
    the chain of (1, 2, ..., n) and proves it by its kernel count.  Either
    polynomial is monic with integer coefficients, because it divides the
    monic integer characteristic polynomial (Gauss's lemma).
    """
    if not a.is_square:
        raise ValueError("minpoly wants a square matrix")
    n = a.n_rows
    if n == 0:
        raise ValueError("minpoly of a 0x0 matrix")
    if v is None:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        powers = accumulate(repeat(a.entries, n), _product, initial=identity)
        terms = map(chain.from_iterable, powers)
    else:
        terms = accumulate(repeat(list(zip(*a.entries)), n),
                           lambda u, cols: [sum(map(operator.mul, u, c)) for c in cols],
                           initial=list(v))
    c = next(filter(None, _relations(terms)), None)
    if c is None:
        raise RuntimeError("n + 1 terms of a Krylov chain came out independent")
    if any(x % c[-1] for x in c):
        raise RuntimeError("minimal polynomial came out non-integral")
    return IntPoly([x // c[-1] for x in c])
