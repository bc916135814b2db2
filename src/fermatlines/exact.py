"""Exact dense linear algebra over the rationals.

Scalars are fractions.Fraction (arbitrary precision, always reduced).  The
elimination workhorse is fraction-free Bareiss on integer rows: entries stay
integral and bounded by minors instead of blowing up as naive rational
Gaussian elimination does on restriction matrices.  Reduced echelon forms
are finished with a cheap rational back-substitution pass, and subspaces are
canonicalized to reduced column echelon form so equality is a plain
entry-wise comparison.

Claims "span(gens) == ker(m)" on sparse generator rows {column: value} are
certified by certify_kernel_span: the inclusion and the rank of m are
exact, ranks mod a prime serve only as lower bounds on ranks over Q, and
when those fall short nothing is proven and callers decide the claim with
the exact canonical subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch
from .rng import Rng

ZERO = Fraction(0)
ONE = Fraction(1)
PRIME = (1 << 61) - 1


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_fraction(q) -> str:
    q = frac(q)
    return "%d/%d" % (q.numerator, q.denominator)


def clear_denominators(xs):
    """(nums, den) with den the lcm of the denominators of the rationals xs
    and nums the ints x * den, in order.  Empty input gives ([], 1)."""
    xs = list(xs)
    den = 1
    for x in xs:
        d = x.denominator
        if den % d:
            den = den * d // gcd(den, d)
    return [x.numerator * (den // x.denominator) for x in xs], den


def _bareiss_echelon(rows):
    """In-place fraction-free row echelon of integer rows.

    Returns the pivot columns.  Divisions are exact by the Sylvester
    identity; column skips (rank-deficient input) are handled.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        p = None
        for i in range(r, nr):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
        pr = rows[r]
        pv = pr[c]
        for i in range(r + 1, nr):
            ri = rows[i]
            m = ri[c]
            for j in range(c + 1, nc):
                ri[j] = (pv * ri[j] - m * pr[j]) // prev
            ri[c] = 0
        prev = pv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


class Matrix:
    """Dense rational matrix (row major)."""

    def __init__(self, rows, ncols: int | None = None):
        self.data = [[frac(x) for x in row] for row in rows]
        self.nrows = len(self.data)
        if self.nrows:
            self.ncols = len(self.data[0])
        elif ncols is not None:
            self.ncols = ncols
        else:
            raise ValueError("empty matrix needs an explicit column count")
        for row in self.data:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        columns = [list(c) for c in columns]
        return cls(zip(*columns), ncols=len(columns))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    def rank(self) -> int:
        """Exact rank via fraction-free elimination."""
        ints = [clear_denominators(row)[0] for row in self.data]
        return len(_bareiss_echelon(ints))

    def rref(self):
        """Reduced row echelon form (leading entries 1, zero rows dropped).

        Returns (rows, pivot_columns) with rows a list of Fraction lists.
        The heavy forward pass is fraction-free; only the final upward
        reduction touches rationals.
        """
        ints = [clear_denominators(row)[0] for row in self.data]
        pivots = _bareiss_echelon(ints)
        rows = [[Fraction(x) for x in ints[k]] for k in range(len(pivots))]
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            pv = rows[k][c]
            rows[k] = [x / pv for x in rows[k]]
            pr = rows[k]
            for i in range(k):
                m = rows[i][c]
                if m:
                    rows[i] = [a - m * b for a, b in zip(rows[i], pr)]
        return rows, pivots

    def kernel_vectors(self):
        """Basis of the right kernel (standard free-variable construction)."""
        rows, pivots = self.rref()
        pivset = set(pivots)
        vecs = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for k, c in enumerate(pivots):
                v[c] = -rows[k][f]
            vecs.append(v)
        return vecs

    def solve(self, rhs):
        """Some x with self·x = rhs, or None when inconsistent."""
        if len(rhs) != self.nrows:
            raise DimensionMismatch("rhs length %d != %d rows" % (len(rhs), self.nrows))
        aug = Matrix([row + [frac(b)] for row, b in zip(self.data, rhs)],
                     ncols=self.ncols + 1)
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for k, c in enumerate(pivots):
            x[c] = rows[k][self.ncols]
        return x


def rank_modular(rows, p: int = PRIME) -> int:
    """Rank over GF(p) of sparse rational rows {column: value}.

    Each row is scaled to integers (which keeps the rank over Q) before it
    is reduced mod p, so every nonzero minor mod p is a nonzero integer
    minor: the result is a lower bound on the rank over Q, never an upper
    one.  Elimination is sparse, on dicts of the nonzero entries.
    """
    pivots = {}
    for row in rows:
        ints, _ = clear_denominators(row.values())
        r = {j: v % p for j, v in zip(row, ints) if v % p}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(r[c], p - 2, p)
                pivots[c] = {j: v * inv % p for j, v in r.items()}
                break
            f = r[c]
            for j, v in prow.items():
                w = (r.get(j, 0) - f * v) % p
                if w:
                    r[j] = w
                else:
                    del r[j]
    return len(pivots)


def certify_kernel_span(m: Matrix, gens, p: int = PRIME) -> int | None:
    """dim ker(m) when span(gens) == ker(m) is proven, else None.

    gens are sparse rows {column: value}.  m·g == 0 is checked exactly on
    m's rows cleared to integers once, so span(gens) lies in ker(m).  With
    the exact rank of m (callers' m have few rows), rank_p(gens) + rank(m)
    >= ncols forces rank(gens) >= dim ker(m), hence equality.  None proves
    nothing either way: the caller must decide the claim exactly.
    """
    rows = [clear_denominators(row)[0] for row in m.data]
    for g in gens:
        if any(not 0 <= j < m.ncols for j in g):
            raise DimensionMismatch("generator column outside %d columns" % m.ncols)
        nums, _ = clear_denominators(g.values())
        if any(sum(row[j] * x for j, x in zip(g, nums)) for row in rows):
            return None
    rank = m.rank()
    if rank_modular(gens, p) + rank < m.ncols:
        return None
    return m.ncols - rank


class Subspace:
    """A linear subspace of Q^ambient.

    Stored as basis vectors whose column matrix is in reduced column echelon
    form (leading entries 1, canonical), so two Subspace objects are equal
    iff they describe the same subspace.
    """

    def __init__(self, ambient: int, echelon_rows):
        # internal: echelon_rows are the RREF rows of the generator matrix
        self.ambient = ambient
        self._rows = echelon_rows
        self._pivots = [next(j for j, x in enumerate(r) if x != 0) for r in echelon_rows]

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatch("vector length %d != ambient %d" % (len(v), ambient))
        if not vecs:
            return cls(ambient, [])
        rows, _ = Matrix(vecs).rref()
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_vectors(self):
        return [list(r) for r in self._rows]

    def contains_vector(self, v) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length %d != ambient %d" % (len(v), self.ambient))
        w = [frac(x) for x in v]
        for row, c in zip(self._rows, self._pivots):
            f = w[c]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return all(x == 0 for x in w)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other._rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient, self._rows + other._rows)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient %d != %d" % (self.ambient, other.ambient))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self._rows == other._rows)

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel of m as a canonical Subspace of Q^(m.ncols)."""
    return Subspace.from_vectors(m.ncols, m.kernel_vectors())


def sample_rational(rng: Rng, bound: int) -> Fraction:
    """Random reduced fraction, numerator in [-bound, bound], denominator in [1, bound]."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_solution(m: Matrix, rhs, rng: Rng, bound: int = 1000):
    """Random exact solution of m·x = rhs: free variables are sampled in
    ascending column order, pivot variables back-substituted on the Bareiss
    echelon form.  Returns None when the system is inconsistent."""
    n = m.ncols
    rows = [clear_denominators(row + [frac(b)])[0] for row, b in zip(m.data, rhs)]
    pivots = _bareiss_echelon(rows)
    if n in pivots:
        return None
    x = [ZERO] * n
    for j in sorted(set(range(n)) - set(pivots)):
        x[j] = sample_rational(rng, bound)
    for row, c in reversed(list(zip(rows, pivots))):
        acc = sum((row[j] * x[j] for j in range(c + 1, n) if row[j]), ZERO)
        x[c] = (row[n] - acc) / row[c]
    return x
