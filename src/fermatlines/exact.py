"""Exact linear algebra over the rationals.

A Matrix keeps the rows it is given, ints or Fractions (both carry
.numerator and .denominator); reduced echelon forms and solutions come out
as fractions.Fraction.  Every rank, echelon form and solve of rows runs on
one elimination: rows are cleared to integers and kept sparse,
{column: int}, and each is reduced once as r = a*r - b*pivot against pivot
rows keyed by their leftmost column and divided by the gcd of their entries
(_reduce, _echelon).  Reduced echelon forms are finished with a rational
back-substitution pass.

A map given by its columns is ranked by one column scan, column_scan,
which keeps the annihilator of the columns taken so far as integer
functionals: its pivots are the leftmost independent columns, and the
functionals left are the reduced basis of the annihilator.  It also keeps
one dual functional per pivot column, zero on the other pivot columns, so a
column in their span is read off as sum x_c*col_c with x_c its dual value
over the pivot's own.  Every kernel vector and solve of a map comes from
that scan: free_vectors gives e_f - sum x_c*e_c at each free column f,
kernel_basis the reduced echelon basis of the kernel from a scan of the
reversed columns, and random_solution reads its pivot variables off the
duals.

Span relations are decided by rank: rank_sparse, and kernel_span_dims
for claims "span(gens) == ker(m)", m given as its columns (ranked by
column_scan) and gens as sparse integer rows {column: int}, which hold iff
m·g == 0 for every g and the two exact dimensions agree.  kernel_span_dims
eliminates the generators once, as given and in place, in the order their
builder fixed (verifiers._ideal_rows: by leftmost column, the first row of
each column first), and returns their echelon form with a copy of the
first generator g with m·g != 0, so a failed claim's witness,
first_outside_span of the kernel vectors against that echelon form or
that generator, eliminates nothing again.
Subspace is canonical (reduced column echelon form, so equality is
entry-wise); it serves the tests' reference computations.
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
    the integer rows {column: nonzero int}, in the order given: each row is
    reduced once, in place, and what is left, divided in place by the gcd
    of its entries, is itself a new pivot row, so the rows must be the
    caller's to spend; no row is read once there are `stop` pivot rows."""
    echelon = {}
    for r in rows:
        if len(echelon) == stop:
            break
        c = _reduce(r, echelon)
        if c is not None:
            g = gcd(*r.values())
            if g != 1:
                for j in r:
                    r[j] //= g
            echelon[c] = r
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


def first_outside_span(echelon, vectors):
    """The first of the rational `vectors` outside the span of an echelon
    form {leftmost column: primitive integer row}, such as
    kernel_span_dims', else None; vectors may be dense lists or sparse
    {column: value} dicts.  Each vector is reduced against the echelon
    form, and nothing is eliminated here."""
    return next((v for v in vectors if _reduce(_integer_row(v), echelon) is not None), None)


def kernel_span_dims(columns, gens):
    """(kernel_dim, echelon, escaped), all exact, for the map m with the
    rational `columns` and the generator rows {column: nonzero int}:
    kernel_dim is len(columns) - rank(m), rank(m) the number of
    column_scan's pivots; echelon is the generators' echelon form
    {leftmost column: primitive integer row}, so rank(gens) is
    len(echelon); escaped is a copy of the first generator g with
    m·g != 0 (summed from the columns), else None.  So span(gens) ==
    ker(m) iff escaped is None and len(echelon) == kernel_dim.  The
    generators are eliminated once, in the order given, each reduced in
    place (they are spent; escaped is the one row copied); when none
    escapes, span(gens) ⊆ ker(m) and the elimination stops at rank
    kernel_dim, where the claim holds, so a claim that fails gets the full
    echelon form.  The order is the caller's: rows sorted by leftmost
    column, the first row of each column ahead of the rest, make every
    first row a new pivot row as it comes.  Generator entries are not
    cleared: a rational one read by the elimination raises TypeError from
    gcd."""
    ncols = len(columns)
    if any(not 0 <= j < ncols for g in gens for j in g):
        raise DimensionMismatch("generator column outside %d columns" % ncols)
    escaped = next((dict(g) for g in gens if any(image(columns, g))), None)
    kernel_dim = ncols - len(column_scan(columns, len(columns[0]) if columns else 0)[0])
    return kernel_dim, _echelon(gens, kernel_dim if escaped is None else None), escaped


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


def sample_rational(rng: Rng, bound: int) -> Fraction:
    """Random reduced fraction, numerator in [-bound, bound], denominator in [1, bound]."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def image(columns, g):
    """m·g, for the map m with the rational `columns` and g sparse
    {column: value}; [] when g has no entry."""
    return [sum(x) for x in zip(*[[v * x for x in columns[j]] for j, v in g.items()])]


def column_scan(columns, size):
    """(pivots, annihilator, duals) of the map with the rational `columns`,
    a sequence of columns each of length `size`: pivots are the indices of
    the leftmost independent columns, annihilator is a list of integer
    functionals spanning the annihilator of every column, so it has
    size - rank members, and duals holds one (functional, value) per pivot
    column c, in order: an integer functional zero on every other pivot
    column, and its nonzero value on column c.  A column in the span of the
    pivot columns is then sum x_c*col_c, x_c its dual's value on it over
    that value.

    The scan reads the columns in order and keeps the functionals spanning
    the annihilator of the pivot columns so far, starting from the unit
    functionals: a column is independent iff one of them is nonzero on it,
    and then the last such one is dropped and becomes the column's dual;
    the others, and the earlier duals, are combined with it to vanish on
    the column and divided by their content.  The duals' values are
    computed only at pivot columns.  No column is read once the
    annihilator is empty (rank `size`).

    A functional combined with a later one keeps its own leading variable,
    and no other survivor's variable enters it: the annihilator is, form by
    form and up to one nonzero integer factor each, the reduced echelon
    basis of the kernel of the matrix with these columns as rows.  Dropping
    the first nonzero functional instead gives the same pivots but forms
    sharing one leading variable."""
    annihilator = [[int(i == k) for i in range(size)] for k in range(size)]
    pivots, duals = [], []
    for j, column in enumerate(columns):
        if not annihilator:
            break
        values = [sum(map(mul, a, column)) for a in annihilator]
        if any(values):
            pivots.append(j)
            k = max(k for k, w in enumerate(values) if w)
            a = annihilator.pop(k)
            forms = annihilator + duals
            values, _ = clear_denominators(     # a positive multiple
                [sum(map(mul, b, column)) for b in [a] + forms])
            forms = [_primitive([values[0] * x - u * y for x, y in zip(b, a)]) if u else b
                     for b, u in zip(forms, values[1:])]
            annihilator, duals = forms[:len(annihilator)], forms[len(annihilator):] + [a]
    return pivots, annihilator, [(b, sum(map(mul, b, columns[c])))
                                 for b, c in zip(duals, pivots)]


def free_vectors(columns, pivots, duals):
    """The kernel vector e_f - sum x_c*e_c, as sparse {column: Fraction},
    at each free column f of the map with the rational `columns`, in
    column order: col_f = sum x_c*col_c over the pivot columns c, each x_c
    read off c's dual, with pivots and duals those of a column_scan of
    these columns (indices in this order)."""
    for f in sorted(set(range(len(columns))).difference(pivots)):
        x = [Fraction(sum(map(mul, dual, columns[f])), value) for dual, value in duals]
        yield {f: ONE, **{c: -y for c, y in zip(pivots, x) if y}}


def kernel_basis(columns, size):
    """The reduced echelon basis of the kernel of the map with the rational
    `columns`, each of length `size`, one sparse vector {column: Fraction}
    at a time, by ascending leading column: free_vectors of a scan of the
    reversed columns, whose pivots are the rightmost independent columns,
    so the vector at a free column f is 1 at f and nonzero elsewhere only at
    pivots right of f.  Only the scan runs before the first vector."""
    pivots, _, duals = column_scan(columns[::-1], size)
    return free_vectors(columns, [len(columns) - 1 - c for c in pivots], duals)


def random_solution(columns, rhs, rng: Rng):
    """Random exact solution of m·x = rhs, for the map m with the rational
    `columns`, or None when the system is inconsistent (a functional of
    column_scan's annihilator is nonzero on rhs).

    The pivots are column_scan's.  The free variables are integers drawn
    from [-DRAW, DRAW] in ascending column order and kept as ints; their
    part, summed row by row, moves to the right-hand side, and each pivot
    variable is read off its dual: its value on what is left over its value
    on the pivot column."""
    pivots, annihilator, duals = column_scan(columns, len(rhs))
    if any(sum(map(mul, a, rhs)) for a in annihilator):
        return None
    x = [rng.randint(-DRAW, DRAW) for _ in range(len(columns) - len(pivots))]
    for j in pivots:
        x.insert(j, 0)
    rest = [c - sum(map(mul, row, x)) for row, c in zip(zip(*columns), rhs)]
    for j, (dual, value) in zip(pivots, duals):
        x[j] = Fraction(sum(map(mul, dual, rest)), value)
    return x


def _primitive(v):
    """The nonzero integer list v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v]
