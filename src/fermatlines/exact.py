"""Exact linear algebra over the rationals.

A Matrix keeps the rows it is given, ints or Fractions (both carry
.numerator and .denominator); reduced echelon forms, kernels and solutions
come out as fractions.Fraction.  Every rank, echelon form and solve runs on
one elimination: rows are cleared to integers and kept sparse,
{column: int}, and each is reduced once as r = a*r - b*pivot against pivot
rows keyed by their leftmost column and divided by the gcd of their entries
(_reduce, _echelon).  Reduced echelon forms are finished with a rational
back-substitution pass.

random_solution finds its pivot columns by a scan that keeps the
annihilator of the columns taken so far as integer functionals, and solves
only the small system on those columns.

Span relations are decided by rank: rank_sparse, first_outside_span, and
kernel_span_dims for claims "span(gens) == ker(m)", m given as its columns
and gens as sparse integer rows {column: int}, which hold iff m·g == 0 for
every g and the two exact dimensions agree.  Subspace is canonical (reduced
column echelon form, so equality is entry-wise); it serves witness vectors
and the tests' reference computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimensionMismatch
from .rng import Rng

ZERO = Fraction(0)
ONE = Fraction(1)
# random_solution draws a member's free coordinates from [-DRAW, DRAW].  A
# nonzero polynomial of degree D vanishes at a uniform draw from S^k with
# probability at most D/|S| (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979):
# a bad locus of degree D is hit with probability at most D/(2*DRAW+1).
DRAW = 2 ** 31


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


def _integer_row(row):
    """The nonzero entries {column: int} of a rational row, dense or sparse
    {column: value}, cleared of denominators."""
    if not isinstance(row, dict):
        row = {j: x for j, x in enumerate(row) if x}
    ints, _ = clear_denominators(row.values())
    return {j: v for j, v in zip(row, ints) if v}


def _reduce(r, echelon):
    """Reduce the integer row r {column: int} in place against `echelon`
    {leftmost column: primitive integer row}, as r = a*r - b*pivot with
    a/b = pivot[c]/r[c] in lowest terms.  Returns the leftmost column of
    what is left, or None when r reduces to zero."""
    while r:
        c = min(r)
        prow = echelon.get(c)
        if prow is None:
            return c
        g = gcd(prow[c], r[c])
        a, b = prow[c] // g, r[c] // g
        if a != 1:
            for j in r:
                r[j] *= a
        for j, v in prow.items():
            w = r.get(j, 0) - b * v
            if w:
                r[j] = w
            else:
                del r[j]
    return None


def _echelon(rows, stop=None):
    """Echelon form {leftmost column: primitive integer row} of the span of
    the integer rows {column: int}: each row is reduced once, in place, and
    what is left, divided by the gcd of its entries, is a new pivot row;
    no row is read once there are `stop` pivot rows."""
    echelon = {}
    for r in rows:
        if len(echelon) == stop:
            break
        c = _reduce(r, echelon)
        if c is not None:
            g = gcd(*r.values())
            echelon[c] = {j: v // g for j, v in r.items()}
    return echelon


class Matrix:
    """Dense rational matrix (row major), its entries ints or Fractions as
    given."""

    def __init__(self, rows, ncols: int | None = None):
        self.data = [list(row) for row in rows]
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
        """Exact rank: the size of the integer echelon form."""
        return len(_echelon(map(_integer_row, self.data)))

    def rref(self):
        """Reduced row echelon form (leading entries 1, zero rows dropped).

        Returns (rows, pivot_columns) with rows a list of Fraction lists.
        The forward pass runs on integer rows; only the pivot rows, divided
        by their leading entries, and the upward reduction touch rationals.
        """
        echelon = _echelon(map(_integer_row, self.data))
        pivots = sorted(echelon)
        rows = []
        for c in pivots:
            row, prow = [ZERO] * self.ncols, echelon[c]
            for j, v in prow.items():
                row[j] = Fraction(v, prow[c])
            rows.append(row)
        for k in range(len(pivots) - 1, -1, -1):
            c, pr = pivots[k], rows[k]
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
        aug = Matrix([row + [b] for row, b in zip(self.data, rhs)],
                     ncols=self.ncols + 1)
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for k, c in enumerate(pivots):
            x[c] = rows[k][self.ncols]
        return x


def rank_sparse(rows) -> int:
    """Exact rank over Q of rational rows, each a dense list or a sparse
    {column: value} dict."""
    return len(_echelon(map(_integer_row, rows)))


def first_outside_span(rows, vectors):
    """The first of the rational `vectors` outside the span of the rational
    rows, else None; rows and vectors may each be dense lists or sparse
    {column: value} dicts.  The rows are eliminated once, and each vector is
    reduced against their echelon form."""
    echelon = _echelon(map(_integer_row, rows))
    return next((v for v in vectors
                 if _reduce(_integer_row(v), echelon) is not None), None)


def kernel_span_dims(columns, gens):
    """(inside, kernel_dim, span_dim), all exact, for the map m with the
    rational `columns` and sparse integer generator rows {column: int}:
    inside is m·g == 0 for every g, summed from the columns, kernel_dim is
    len(columns) - rank(m), from one pass over the rows of m cleared to
    integers, and span_dim is rank(gens).  The generators are eliminated by
    leftmost column, the first row of each column (a new pivot row) first;
    when inside holds, span(gens) ⊆ ker(m) and the elimination stops at
    rank kernel_dim.  Generator entries are not cleared: a rational one
    read by the elimination raises TypeError from gcd."""
    ncols = len(columns)
    if any(not 0 <= j < ncols for g in gens for j in g):
        raise DimensionMismatch("generator column outside %d columns" % ncols)
    inside = all(not any(map(sum, zip(*[[v * x for x in columns[j]]
                                        for j, v in r.items()]))) for r in gens)
    kernel_dim = ncols - len(_echelon(map(_integer_row, zip(*columns))))
    gens = [{j: v for j, v in g.items() if v} for g in gens]    # copies, reduced in place
    firsts, rest = [], []
    for r in sorted(filter(None, gens), key=min):
        (rest if firsts and min(firsts[-1]) == min(r) else firsts).append(r)
    return inside, kernel_dim, len(_echelon(firsts + rest, kernel_dim if inside else None))


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

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self._rows == other._rows)

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel of m as a canonical Subspace of Q^(m.ncols), from one rref: the
    free-variable basis of m with its columns reversed, read back, has each
    vector's leading 1 at its own free column and 0 at the other free
    columns, so in ascending order it is the reduced echelon basis."""
    flipped = Matrix([row[::-1] for row in m.data], ncols=m.ncols)
    return Subspace(m.ncols, [v[::-1] for v in reversed(flipped.kernel_vectors())])


def sample_rational(rng: Rng, bound: int) -> Fraction:
    """Random reduced fraction, numerator in [-bound, bound], denominator in [1, bound]."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_solution(columns, rhs, rng: Rng):
    """Random exact solution of m·x = rhs, for the map m with the rational
    `columns`, or None when the system is inconsistent.

    The pivots are the leftmost independent columns, found by a column scan
    that stops at len(rhs) of them.  The scan keeps integer functionals
    spanning the annihilator of the pivot columns so far: a column is
    independent iff one of them is nonzero on it, and then the others are
    combined with that one to vanish on it.  The free variables are
    integers drawn from [-DRAW, DRAW] in ascending column order and kept as
    ints; their part, summed row by row, moves to the right-hand side, and
    the small system on the pivot columns is solved exactly."""
    annihilator = [[int(i == k) for i in range(len(rhs))] for k in range(len(rhs))]
    pivots = []
    for j, column in enumerate(columns):
        if not annihilator:
            break
        values = [sum(map(mul, a, column)) for a in annihilator]
        if any(values):
            pivots.append(j)
            values, _ = clear_denominators(values)     # a positive multiple
            k = next(k for k, w in enumerate(values) if w)
            a, w = annihilator.pop(k), values.pop(k)
            annihilator = [_primitive([w * x - u * y for x, y in zip(b, a)]) if u else b
                           for b, u in zip(annihilator, values)]
    if any(sum(map(mul, a, rhs)) for a in annihilator):
        return None
    x = [rng.randint(-DRAW, DRAW) for _ in range(len(columns) - len(pivots))]
    for j in pivots:
        x.insert(j, 0)
    r = len(pivots)
    echelon = _echelon(_integer_row([row[j] for j in pivots] + [c - sum(map(mul, row, x))])
                       for row, c in zip(zip(*columns), rhs))
    for k in range(r - 1, -1, -1):
        row = echelon[k]
        later = sum(v * x[pivots[i]] for i, v in row.items() if k < i < r)
        x[pivots[k]] = (row.get(r, 0) - later) / Fraction(row[k])
    return x


def _primitive(v):
    """The nonzero integer list v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v]
