"""Exact dense linear algebra over the rationals.

Scalars are fractions.Fraction (arbitrary precision, always reduced).  The
elimination workhorse is fraction-free Bareiss on integer rows: entries stay
integral and bounded by minors instead of blowing up as naive rational
Gaussian elimination does on restriction matrices.  Reduced echelon forms
are finished with a cheap rational back-substitution pass, and subspaces are
canonicalized to reduced column echelon form so equality is a plain
entry-wise comparison.

Claims "span(gens) == ker(m)" are certified by certify_kernel_span: the
inclusion is checked exactly, ranks mod a prime serve only as lower bounds
on ranks over Q, and when those fall short nothing is proven and callers
decide the claim with the exact canonical subspaces.
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


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        l = 1
        for x in row:
            d = x.denominator
            l = l * d // gcd(l, d)
        out.append([int(x.numerator * (l // x.denominator)) for x in row])
    return out


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
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, nrows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if columns:
            nrows = len(columns[0])
        elif nrows is None:
            raise ValueError("empty column list needs an explicit row count")
        return cls([[col[i] for col in columns] for i in range(nrows)],
                   ncols=len(columns))

    def column(self, j: int):
        return [row[j] for row in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns([list(r) for r in self.data], nrows=self.ncols)

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d != %d columns" % (len(v), self.ncols))
        return [sum((a * b for a, b in zip(row, v)), ZERO) for row in self.data]

    def stack_below(self, other: "Matrix") -> "Matrix":
        if other.ncols != self.ncols:
            raise DimensionMismatch("column counts differ")
        return Matrix(self.data + other.data, ncols=self.ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    def rank(self) -> int:
        """Exact rank via fraction-free elimination."""
        ints = _integer_rows(self.data)
        return len(_bareiss_echelon(ints))

    def rref(self):
        """Reduced row echelon form (leading entries 1, zero rows dropped).

        Returns (rows, pivot_columns) with rows a list of Fraction lists.
        The heavy forward pass is fraction-free; only the final upward
        reduction touches rationals.
        """
        ints = _integer_rows(self.data)
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


def rank(m: Matrix) -> int:
    return m.rank()


def solve(m: Matrix, rhs):
    return m.solve(rhs)


def rank_modular(m, p: int = PRIME) -> int:
    """Rank over GF(p) of a Matrix or a list of rational rows.

    Each row is scaled to integers (which keeps the rank over Q) before it
    is reduced mod p, so every nonzero minor mod p is a nonzero integer
    minor: the result is a lower bound on the rank over Q, never an upper
    one.  Elimination is sparse, on dicts of the nonzero entries.
    """
    pivots = {}
    for row in (m.data if isinstance(m, Matrix) else m):
        cols = [j for j, x in enumerate(row) if x]
        ints = _integer_rows([[row[j] for j in cols]])[0]
        r = {j: v % p for j, v in zip(cols, ints) if v % p}
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


def certify_kernel_span(m: Matrix, gens, m_rank: int | None = None,
                        p: int = PRIME) -> int | None:
    """dim ker(m) when span(gens) == ker(m) is proven, else None.

    m·g == 0 is checked exactly for each generator, so span(gens) lies in
    ker(m).  m_rank is the exact rank of m or any lower bound on it (by
    default its rank mod p).  rank_p(gens) + m_rank >= ncols then forces
    rank(gens) >= dim ker(m), hence equality.  None proves nothing either
    way: the caller must decide the claim exactly.
    """
    for g in gens:
        if len(g) != m.ncols:
            raise DimensionMismatch("vector length %d != %d columns" % (len(g), m.ncols))
        nz = [(j, x) for j, x in enumerate(g) if x]
        if any(sum(row[j] * x for j, x in nz) for row in m.data):
            return None
    if m_rank is None:
        m_rank = rank_modular(m, p)
    if rank_modular(gens, p) + m_rank < m.ncols:
        return None
    return m.ncols - m_rank


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

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(ambient, Matrix.identity(ambient).data)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_vectors(self):
        return [list(r) for r in self._rows]

    def basis_matrix(self) -> Matrix:
        """Basis as columns, reduced column echelon form."""
        return Matrix.from_columns(self.basis_vectors(), nrows=self.ambient)

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

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        cols = [list(r) for r in self._rows] + [[-x for x in r] for r in other._rows]
        stacked = Matrix.from_columns(cols, nrows=self.ambient)
        vecs = []
        for w in stacked.kernel_vectors():
            coeffs = w[: self.dim]
            v = [ZERO] * self.ambient
            for a, row in zip(coeffs, self._rows):
                if a:
                    v = [x + a * y for x, y in zip(v, row)]
            vecs.append(v)
        return Subspace.from_vectors(self.ambient, vecs)

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


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return a.sum(b)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)


def subspace_contains(a: Subspace, b) -> bool:
    if isinstance(b, Subspace):
        return a.contains(b)
    return a.contains_vector(b)


def sample_rational(rng: Rng, bound: int) -> Fraction:
    """Random reduced fraction, numerator in [-bound, bound], denominator in [1, bound]."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_solution(m: Matrix, rhs, rng: Rng, bound: int = 1000):
    """Random exact solution of m·x = rhs: free variables are sampled, pivot
    variables solved.  Returns None when the system is inconsistent."""
    aug = Matrix([row + [frac(b)] for row, b in zip(m.data, rhs)], ncols=m.ncols + 1)
    rows, pivots = aug.rref()
    if m.ncols in pivots:
        return None
    pivset = set(pivots)
    x = [ZERO] * m.ncols
    for j in range(m.ncols):
        if j not in pivset:
            x[j] = sample_rational(rng, bound)
    for k, c in enumerate(pivots):
        acc = rows[k][m.ncols]
        row = rows[k]
        for j in range(c + 1, m.ncols):
            if j not in pivset and row[j]:
                acc -= row[j] * x[j]
        x[c] = acc
    return x
