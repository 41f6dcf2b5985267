"""Seeded benchmark inputs, and checks of the outputs against expected values.

Every expected value here is computed without the code being timed: the
elementary divisor vector of a matrix built from known blocks, the Dedekind
local factor of x^2+1 or of an irreducible cubic from its roots mod p, and
the count of all sublattices of Z^n for matrices that fix every lattice.
Where no closed form exists (nilpotent matrices at small primes, dense
random matrices) the check falls back on invariants: equal counts for
conjugate matrices, and outputs recorded from an earlier commit.

Each generator yields an endless stream of distinct operations. An
operation is a dict with the CLI argument list ("argv"), a short input
class ("kind") and whatever its check needs.
"""

from __future__ import annotations

import hashlib
import json
import random

# ---------------------------------------------------------------------------
# small exact helpers, independent of the package


def poly_mul(f, g):
    """Product of integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_pow(f, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, f)
    return out


def companion_rows(f):
    """Companion matrix of a monic polynomial, ones on the subdiagonal."""
    d = len(f) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -f[i]
    return rows


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return rows


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unimodular_pair(rng, n, steps, coef):
    """A random U in GL_n(Z) and its inverse, from elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([k for k in range(-coef, coef + 1) if k])
        # U <- E U with E = I + c e_ij; U^-1 <- U^-1 E^-1 with E^-1 = I - c e_ij
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def conjugate(rng, a, steps, coef):
    u, inv = unimodular_pair(rng, len(a), steps, coef)
    return matmul(matmul(u, a), inv)


def series_of_product(factors, max_exp):
    """Coefficients of prod 1/(1 - c t^d) up to t^max_exp, for (c, d) pairs."""
    coeffs = [1] + [0] * max_exp
    for c, d in factors:
        for i in range(d, max_exp + 1):
            coeffs[i] += c * coeffs[i - d]
    return coeffs


def all_sublattice_counts(n, p, max_exp):
    """Sublattices of index p^e in Z^n: the local factor of zeta(s)...zeta(s-n+1)."""
    return series_of_product([(p ** i, 1) for i in range(n)], max_exp)


def place_degrees(f, p):
    """Residue degrees of the places above p of a squarefree cubic or quadratic mod p."""
    d = len(f) - 1
    roots = sum(1 for x in range(p) if sum(c * x ** k for k, c in enumerate(f)) % p == 0)
    if d == 2:
        return {0: [2], 2: [1, 1]}[roots]
    if d == 3:
        return {0: [3], 1: [1, 2], 3: [1, 1, 1]}[roots]
    raise ValueError("only quadratics and cubics")


def dedekind_counts(f, p, max_exp):
    """Ideals of p-power index in Z[x]/(f) at a prime not dividing disc f."""
    return series_of_product([(1, d) for d in place_degrees(f, p)], max_exp)


def matrix_arg(rows):
    return json.dumps(rows, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads
#
# A generator yields cycles: lists of operations that cover every input class
# of the workload once.  The timed loop stops only between cycles, so each run
# measures the same mix of classes whatever its seed; the seed changes the
# matrices inside each class.


def roadmap_n12():
    """The n = 12 matrix whose 160-digit discriminant stalls the bad-prime factorization."""
    rng = random.Random(1)
    return [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]


def gen_analyze_random(seed):
    """Dense random matrices, entries in [-9, 9], one of each n from 4 to 12 per cycle."""
    yield [{"argv": analyze_argv(roadmap_n12()), "kind": "n12-roadmap", "n": 12}]
    rng = random.Random(f"analyze-random:{seed}")
    while True:
        sizes = list(range(4, 13))
        rng.shuffle(sizes)
        yield [{"argv": analyze_argv([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]),
                "kind": f"n{n}", "n": n} for n in sizes]


# Small irreducibles by degree, coefficients lowest degree first.
IRREDUCIBLES = {
    1: [[0, 1], [-1, 1], [1, 1], [-2, 1]],                      # x, x-1, x+1, x-2
    2: [[1, 0, 1], [-2, 0, 1], [1, 1, 1], [-3, 0, 1]],          # x^2+1, x^2-2, x^2+x+1, x^2-3
    3: [[-1, -1, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 1], [-3, 0, 0, 1]],  # x^3-x-1, x^3-2, x^3+x+1, x^3-3
}


def structured_shapes():
    """For each n from 8 to 24, blocks (degree, polynomial slot, exponent) filling n.

    The shapes are fixed, so every seed times the same elementary divisors up
    to the choice of polynomials; the seed picks which irreducible fills each
    slot, and the conjugating matrix.  Every shape keeps the minimal
    polynomial at degree n/2 or less, so no matrix is cyclic and the Krylov
    search of `minpoly` runs over every basis vector whatever the conjugator,
    which keeps the cost of one size from jumping between seeds.
    """
    rng = random.Random("analyze-structured shapes")
    shapes = {}
    for n in range(8, 25):
        blocks = []
        while minpoly_degree(blocks) > n // 2:
            blocks = []
            size = 0
            while size < n:
                d = rng.choice([d for d in IRREDUCIBLES if d <= n - size])
                k = rng.randint(1, min(3, (n - size) // d))
                blocks.append((d, rng.randrange(2), k))
                size += d * k
        shapes[n] = blocks
    return shapes


def minpoly_degree(blocks):
    """Degree of the minimal polynomial of a block sum; above any n for no blocks."""
    top = {}
    for d, slot, k in blocks:
        top[(d, slot)] = max(top.get((d, slot), 0), d * k)
    return sum(top.values()) if blocks else 10 ** 9


def structured_matrix(rng, shape):
    """A block sum of companions of f^k, conjugated by U, and its known EDV."""
    slots = {d: rng.sample(polys, len(polys)) for d, polys in IRREDUCIBLES.items()}
    blocks = []
    edv = {}
    for d, slot, k in shape:
        f = slots[d][slot]
        blocks.append(companion_rows(poly_pow(f, k)))
        edv.setdefault(tuple(f), []).append(k)
    rng.shuffle(blocks)
    rows = block_diag(blocks)
    rows = conjugate(rng, rows, steps=len(rows), coef=1)
    return rows, {f: sorted(parts, reverse=True) for f, parts in edv.items()}


def gen_analyze_structured(seed):
    """One matrix of each n from 8 to 24 per cycle."""
    shapes = structured_shapes()
    rng = random.Random(f"analyze-structured:{seed}")
    while True:
        sizes = sorted(shapes)
        rng.shuffle(sizes)
        cycle = []
        for n in sizes:
            rows, expected = structured_matrix(rng, shapes[n])
            cycle.append({"argv": analyze_argv(rows), "kind": f"n{n}", "n": n, "edv": expected})
        yield cycle


X2P1 = [1, 0, 1]
CUBICS = [[-1, -1, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 1], [1, 2, 0, 1]]  # disc -23, -108, -31, -59
BIG_ENTRY = 10 ** 15  # far past the oracle's int64 bound at these p and E

# (class, polynomials, prime, E): operations of 30-130 ms, 0.1-0.4 M HNF
# candidates on the int64 path and 5 k on the big-integer path
SPARSE_CYCLE = [
    ("x2+1-split", [X2P1], 13, 5),
    ("x2+1-split", [X2P1], 17, 4),
    ("x2+1-inert", [X2P1], 11, 5),
    ("x2+1-inert", [X2P1], 23, 4),
    ("cubic", CUBICS, 7, 3),
    ("cubic", CUBICS, 19, 2),
    ("x2+1-bigint", [X2P1], 5, 5),
    ("x2+1-bigint", [X2P1], 3, 7),
]


def gen_verify_sparse(seed):
    """x^2+1 at split and inert primes, irreducible cubics, and x^2+1 with huge entries."""
    rng = random.Random(f"verify-sparse:{seed}")
    while True:
        cycle = []
        for kind, polys, p, e in SPARSE_CYCLE:
            f = rng.choice(polys)
            rows = conjugate(rng, companion_rows(f), 2 * len(f), 2)
            while kind == "x2+1-bigint" and max(abs(x) for r in rows for x in r) < BIG_ENTRY:
                rows = conjugate(rng, rows, 4, 9)
            cycle.append({"argv": verify_argv(rows, p, e), "kind": f"{kind}@{p}", "prime": p,
                          "expected": dedekind_counts(f, p, e)})
        yield cycle


# (n, p, E); 0.03-0.5 M HNF candidates each, so that the int64 enumeration,
# not per-call overhead, takes most of each operation
DENSE_CASES = [(2, 2, 17), (2, 3, 11), (2, 5, 8), (3, 2, 8), (3, 3, 5), (3, 5, 4),
               (4, 2, 5), (4, 3, 3)]
NILPOTENT_TYPES = {2: [(2,)], 3: [(3,), (2, 1)], 4: [(4,), (3, 1), (2, 2), (2, 1, 1)]}


def gen_verify_dense(seed):
    """Zero, scalar and conjugated nilpotent matrices, n = 2-4, at small p."""
    rng = random.Random(f"verify-dense:{seed}")
    # the zero matrices are few; later cycles skip them as repeats
    yield [{"argv": verify_argv([[0] * n for _ in range(n)], p, e), "kind": "zero",
            "prime": p, "expected": all_sublattice_counts(n, p, e)}
           for n, p, e in DENSE_CASES]
    while True:
        cycle = []
        for n, p, e in DENSE_CASES:
            c = rng.randint(-10 ** 5, 10 ** 5)  # keeps every case on the int64 path
            scalar = [[c * int(i == j) for j in range(n)] for i in range(n)]
            cycle.append({"argv": verify_argv(scalar, p, e), "kind": "scalar", "prime": p,
                          "expected": all_sublattice_counts(n, p, e)})
            lam = rng.choice(NILPOTENT_TYPES[n])
            shift = block_diag([companion_rows([0] * k + [1]) for k in lam])
            rows = conjugate(rng, shift, 2 * n, 1)
            cycle.append({"argv": verify_argv(rows, p, e), "kind": "nilpotent",
                          "prime": p, "class": (lam, p, e)})
        yield cycle


def analyze_argv(rows):
    return ["analyze", matrix_arg(rows), "--format", "json"]


def verify_argv(rows, p, e):
    return ["verify", matrix_arg(rows), "--primes", str(p),
            "--max-index-exp", str(e), "--format", "json"]


GENERATORS = {
    "analyze-structured": gen_analyze_structured,
    "verify-sparse": gen_verify_sparse,
    "verify-dense": gen_verify_dense,
    "analyze-random": gen_analyze_random,
}


def distinct_ops(workload, seed):
    """The workload's operations in order, skipping any argv already seen.

    The first operation of each cycle carries "cycle_start": True.
    """
    seen = set()
    for cycle in GENERATORS[workload](seed):
        first = True
        for op in cycle:
            key = digest("\0".join(op["argv"]))
            if key in seen:
                continue
            seen.add(key)
            op["id"] = key
            op["cycle_start"] = first
            first = False
            yield op


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Checks each operation's exit code and JSON output; returns an error or None."""

    def __init__(self, golden=None):
        self.golden = golden or {}
        self.class_counts = {}
        self.unchecked = 0

    def __call__(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        if op["argv"][0] == "analyze":
            return self._analyze(op, doc, out)
        return self._verify(op, doc)

    def _analyze(self, op, doc, out):
        if doc["matrix"]["entries"] != json.loads(op["argv"][1]):
            return "matrix echo differs from the input"
        got = {tuple(e["poly"]): sorted(e["partition"], reverse=True) for e in doc["edv"]}
        size = sum((len(f) - 1) * sum(parts) for f, parts in got.items())
        if size != op["n"]:
            return f"EDV has size {size}, not {op['n']}"
        small = [str(p) for p in range(2, op["n"] + 1)
                 if all(p % q for q in range(2, p))]
        if any(p not in doc["bad_primes"] for p in small):
            return "a prime p <= n is missing from the bad primes"
        if "edv" in op:
            if got != op["edv"]:
                return f"EDV {got} differs from the constructed {op['edv']}"
            return None
        want = self.golden.get(op["id"])
        if want is None:
            self.unchecked += 1
            return None
        if digest(out) != want:
            return "output differs from the recorded golden output"
        return None

    def _verify(self, op, doc):
        if doc.get("all_good_primes_match") is not True:
            return "all_good_primes_match is not true"
        (report,) = doc["reports"]
        if report["prime"] != op["prime"]:
            return "report for the wrong prime"
        got = report["oracle_values"]
        if report["heuristically_good"] and report["formula_values"] != got:
            return "formula and oracle differ at a good prime"
        if "expected" in op:
            if got != op["expected"]:
                return f"oracle counts {got}, closed form {op['expected']}"
            return None
        # no closed form: conjugate matrices must give equal counts
        first = self.class_counts.setdefault(op["class"], got)
        if got != first:
            return f"counts {got} differ from {first} for a conjugate matrix"
        return None
