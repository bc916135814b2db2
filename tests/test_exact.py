"""Exact linear algebra: examples with independent oracles, then laws."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import fermatlines.exact as exact
from fermatlines.errors import DimensionMismatch
from fermatlines.exact import (DRAW, Matrix, Subspace, clear_denominators,
                               first_outside_span, format_fraction, kernel_basis,
                               kernel_span_dims, rank_sparse, random_solution,
                               sample_rational)
from fermatlines.rng import Rng
from tests.oracles import contains_vector, matrix_of_columns


def identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def zeros(nrows, ncols):
    return Matrix([[0] * ncols for _ in range(nrows)])


def full(ambient):
    return Subspace.from_vectors(ambient, identity(ambient).data)


def sparse(rows):
    """Rows {column: value} of the nonzero entries of dense rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def integer_sparse(rows):
    """Integer rows {column: int} of the nonzero entries of dense rational
    rows, each cleared of denominators (a positive multiple, the same span),
    as kernel_span_dims takes generators."""
    return [exact._integer_row(row) for row in rows]


def columns(m):
    """The columns of a Matrix, as kernel_span_dims takes its map."""
    return [[row[j] for row in m.data] for j in range(m.ncols)]


def span_claim(result):
    """kernel_span_dims' (kernel_dim, echelon, escaped) as (inside,
    kernel_dim, span_dim): inside is no generator escaping ker(m), and
    span_dim the size of the generators' echelon form."""
    kernel_dim, echelon, escaped = result
    return escaped is None, kernel_dim, len(echelon)


def echelon_of(rows):
    """The echelon form of rational rows, dense or sparse, that
    first_outside_span reduces against: the package's one elimination."""
    return exact._echelon(map(exact._integer_row, rows))


def kernel_basis_oracle(m):
    """Oracle: the kernel's free-variable basis canonicalized by a second rref."""
    return Subspace.from_vectors(m.ncols, m.kernel_vectors())


def kernel_basis_reference(columns, size):
    """kernel_basis's call by the two-rref oracle: the reduced echelon
    basis of the kernel of the map with these columns (each of length
    size), as sparse {column: Fraction} vectors."""
    return [{j: x for j, x in enumerate(v) if x}
            for v in kernel_basis_oracle(matrix_of_columns(columns)).basis_vectors()]


def kernel_vectors(m):
    """exact.kernel_basis of the Matrix m, given by its columns, as dense
    Fraction lists."""
    return [[v.get(j, Fraction(0)) for j in range(m.ncols)]
            for v in kernel_basis(columns(m), m.nrows)]


def kernel_space(m):
    """The canonical Subspace spanned by kernel_vectors(m)."""
    return Subspace.from_vectors(m.ncols, kernel_vectors(m))


def mul_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.data]


def meet(a, b):
    """Oracle: a basis of the intersection of a and b, from the kernel of
    [basis(a) | -basis(b)] mapped back through the a-coefficients."""
    basis = a.basis_vectors()
    cols = basis + [[-x for x in v] for v in b.basis_vectors()]
    vecs = []
    for w in matrix_of_columns(cols).kernel_vectors():
        vecs.append([sum((c * v[i] for c, v in zip(w, basis)), Fraction(0))
                     for i in range(a.ambient)])
    return Subspace.from_vectors(a.ambient, vecs)


def brute_force_rank(rows):
    """Oracle: largest k with a nonzero k x k minor, by determinant expansion."""
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            sub = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * det(sub)
            total += term if j % 2 == 0 else -term
        return total

    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                if det(minor) != 0:
                    return k
    return 0


def fraction_rref_reference(rows):
    """Oracle: plain rational Gauss-Jordan, no fraction-free tricks."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr, nc = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[piv], m[r] = m[r], m[piv]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:len(pivots)], pivots


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


def bareiss_rank(rows):
    """Oracle: the rank from dense fraction-free Bareiss elimination of the
    rows cleared to integers, the elimination the library used before its
    sparse gcd elimination."""
    return len(_bareiss_echelon([clear_denominators(row)[0] for row in rows]))


def random_matrix(rng, nrows, ncols, bound=9):
    return Matrix([[sample_rational(rng, bound) for _ in range(ncols)]
                   for _ in range(nrows)])


def test_rank_examples():
    assert identity(2).rank() == 2
    assert zeros(2, 2).rank() == 0
    m = Matrix([[1, 2], [2, 4], [3, 6]])
    assert m.rank() == 1
    assert brute_force_rank(m.data) == 1


def test_kernel_examples():
    assert kernel_space(identity(2)).dim == 0
    k = kernel_space(Matrix([[1, -1]]))
    assert k.dim == 1
    # solved by hand: x0 = x1
    assert contains_vector(k, [1, 1])
    assert not contains_vector(k, [1, 2])
    assert kernel_space(zeros(3, 3)) == full(3)


def test_solve_examples():
    assert identity(2).solve([3, 5]) == [3, 5]
    x = Matrix([[1, -1]]).solve([0])
    assert x is not None and x[0] == x[1]
    assert Matrix([[1], [1]]).solve([1, 2]) is None


def test_subspace_examples():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    assert Subspace.from_vectors(2, e1.basis_vectors() + e2.basis_vectors()) == full(2)
    assert meet(e1, e2).dim == 0
    s = Subspace.from_vectors(2, [[1, 1], [1, -1]])
    # hand solution of a*(1,1) + b*(1,-1) = (5,3): a = 4, b = 1
    assert contains_vector(s, [5, 3])
    assert all(contains_vector(s, v) for v in e1.basis_vectors())
    assert not all(contains_vector(e1, v) for v in s.basis_vectors())
    one_dim = Subspace.from_vectors(2, [[1, 1]])
    assert not contains_vector(one_dim, [5, 3])


def test_subspace_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(2, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        contains_vector(full(2), [1, 2, 3])


def test_sample_rational_examples():
    q = sample_rational(Rng(0), 1)
    assert q in (Fraction(-1), Fraction(0), Fraction(1))
    assert sample_rational(Rng(123), 50) == sample_rational(Rng(123), 50)
    rng = Rng(9)
    for _ in range(10_000):
        q = sample_rational(rng, 1000)
        assert -1000 <= q.numerator <= 1000 or abs(q) <= 1000
        assert 1 <= q.denominator <= 1000
        from math import gcd
        assert gcd(abs(q.numerator), q.denominator) == 1
    with pytest.raises(ValueError):
        sample_rational(rng, 0)


def test_rank_plus_nullity_and_kernel_annihilates():
    rng = Rng(41)
    for _ in range(30):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        m = random_matrix(rng, nr, nc, bound=6)
        k = kernel_space(m)
        assert m.rank() + k.dim == nc
        for v in kernel_vectors(m):
            assert all(x == 0 for x in mul_vec(m, v))


def test_rank_matches_brute_force_minors():
    rng = Rng(42)
    for _ in range(15):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=4)
        assert m.rank() == brute_force_rank(m.data)


def test_rref_matches_plain_fraction_reference():
    rng = Rng(43)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), bound=9)
        got_rows, got_piv = m.rref()
        want_rows, want_piv = fraction_rref_reference(m.data)
        assert got_piv == want_piv
        assert got_rows == want_rows


def test_rank_matches_the_bareiss_reference_up_to_60():
    rng = Rng(44)
    for trial in range(100):
        nr = rng.randint(1, 60)
        nc = rng.randint(1, 60)
        # integer-heavy matrices of low rank stress the elimination more
        m = random_matrix(rng, nr, nc, bound=20)
        assert m.rank() == bareiss_rank(m.data)


def test_rank_and_rref_on_deliberately_rank_deficient_matrices():
    """Low-rank products: most rows reduce to zero, and the Bareiss
    reference skips columns, where exact divisibility is the subtle claim."""
    rng = Rng(48)
    for _ in range(40):
        m_rows = rng.randint(2, 8)
        n_cols = rng.randint(2, 8)
        inner = rng.randint(1, min(m_rows, n_cols))
        left = random_matrix(rng, m_rows, inner, bound=12)
        right = random_matrix(rng, inner, n_cols, bound=12)
        prod = Matrix([[sum((a * r[j] for a, r in zip(row, right.data)), Fraction(0))
                        for j in range(n_cols)] for row in left.data])
        assert prod.rank() <= inner
        got_rows, got_piv = prod.rref()
        want_rows, want_piv = fraction_rref_reference(prod.data)
        assert (got_rows, got_piv) == (want_rows, want_piv)
        assert prod.rank() == rank_sparse(sparse(prod.data)) == bareiss_rank(prod.data)


def test_rank_clears_denominators_before_reducing():
    # the elimination clears each row to integers; a large prime denominator
    # in one entry must not change the rank
    p = (1 << 61) - 1
    m = Matrix([[Fraction(1, p), 1], [1, p]])
    assert m.rank() == brute_force_rank(m.data) == 1
    assert rank_sparse(sparse(m.data)) == 1


def test_reduction_against_an_echelon_form_decides_span_membership():
    """A vector reduces to zero against the echelon form of some rows
    exactly when the canonical Subspace of the rows contains it."""
    rng = Rng(52)
    seen = set()
    for trial in range(60):
        amb = rng.randint(1, 8)
        rows = random_matrix(rng, rng.randint(1, 6), amb, bound=5).data
        if trial % 3 == 0:      # rank deficient: the last row repeats the first
            rows[-1] = list(rows[0])
        if trial % 2:           # a combination of the rows, so in the span
            v = [sum((sample_rational(rng, 3) * row[j] for row in rows), Fraction(0))
                 for j in range(amb)]
        else:
            v = [sample_rational(rng, 5) for _ in range(amb)]
        echelon = echelon_of(sparse(rows))
        reduces = exact._reduce(exact._integer_row(v), echelon) is None
        inside = contains_vector(Subspace.from_vectors(amb, rows), v)
        assert reduces == inside
        assert (first_outside_span(echelon, [v]) is None) == inside
        seen.add(inside)
    assert seen == {True, False}


def test_certify_kernel_span_examples():
    m = [(1,), (-1,), (0,)]     # the columns of the 1 x 3 matrix (1 -1 0)
    assert span_claim(kernel_span_dims(m, [{0: 1, 1: 1}, {2: 1}])) == (True, 2, 2)
    assert span_claim(kernel_span_dims([(Fraction(1, 3),), (Fraction(-1, 3),), (0,)],
                                       [{0: 1, 1: 1}, {2: 5}])) == (True, 2, 2)
    # too few generators: the span is smaller than the kernel
    assert span_claim(kernel_span_dims(m, [{0: 1, 1: 1}])) == (True, 2, 1)
    # a generator outside the kernel, returned as a copy: the rows given
    # are reduced in place
    gens = [{0: 1, 1: 1}, {2: 1}, {0: 1}]
    assert span_claim(kernel_span_dims(m, gens)) == (False, 2, 3)
    gens = [{0: 1, 1: 1}, {2: 1}, {0: 1}]
    escaped = kernel_span_dims(m, gens)[2]
    assert escaped == {0: 1} and escaped is not gens[2]
    # a common factor of every entry does not change the rank
    assert span_claim(kernel_span_dims(m, [{0: 3, 1: 3}, {2: 3}])) == (True, 2, 2)
    assert span_claim(kernel_span_dims(columns(zeros(2, 2)), [{0: 1}, {1: 1}])) == (True, 2, 2)
    for outside in ({3: 1}, {-1: 1}):
        with pytest.raises(DimensionMismatch):
            kernel_span_dims(m, [{0: 1, 1: 1}, outside])
    # the column check covers generators after one outside the kernel
    with pytest.raises(DimensionMismatch):
        kernel_span_dims(m, [{0: 1}, {3: 1}])


def test_certify_kernel_span_matches_exact_kernel():
    rng = Rng(50)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8), bound=5)
        gens = m.kernel_vectors()
        nullity = m.ncols - m.rank()
        # one redundant generator on top of a basis
        extra = [[x + 3 * y for x, y in zip(gens[0], gens[-1])]] if gens else []
        assert (span_claim(kernel_span_dims(columns(m), integer_sparse(gens + extra)))
                == (True, nullity, nullity))
        if gens:
            assert (span_claim(kernel_span_dims(columns(m), integer_sparse(gens[1:])))
                    == (True, nullity, nullity - 1))


def test_kernel_span_stop_gives_the_full_rank():
    """Inside the kernel, the ordered elimination that stops at kernel_dim
    gives the same span_dim as a full rank, whether or not the generators
    fill the kernel, with repeated leftmost columns, multiples and empty
    rows among them."""
    rng = Rng(52)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 8), bound=5)
        kernel = m.kernel_vectors()
        gens = integer_sparse(kernel)
        combos = integer_sparse([[2 * x - y for x, y in zip(a, b)]
                                 for a, b in zip(kernel, kernel[1:])])
        pool = gens + combos + [{j: 3 * x for j, x in g.items()} for g in gens] + [{}]
        for _ in range(4):
            chosen = [dict(pool[rng.randint(0, len(pool) - 1)])
                      for _ in range(rng.randint(0, 6))]
            want = (True, m.ncols - m.rank(), rank_sparse(chosen))
            assert span_claim(kernel_span_dims(columns(m), chosen)) == want


def test_kernel_span_outside_the_kernel_gives_the_full_rank():
    """When a generator leaves the kernel there is no stop: span_dim is the
    full rank, also when it exceeds kernel_dim."""
    rng = Rng(53)
    above = 0
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7), bound=5)
        gens = integer_sparse(m.kernel_vectors() + random_matrix(rng, 2, m.ncols).data)
        rank = rank_sparse(gens)
        all_inside = all(not any(mul_vec(m, [g.get(j, 0) for j in range(m.ncols)]))
                         for g in gens)
        inside, kernel_dim, span_dim = span_claim(kernel_span_dims(columns(m), gens))
        assert (kernel_dim, span_dim) == (m.ncols - m.rank(), rank)
        assert inside == all_inside
        above += span_dim > kernel_dim
    assert above


def test_kernel_span_escaped_is_the_first_generator_leaving_the_kernel():
    """escaped is the first generator g, in the order given, with m·g != 0,
    a copy of the row given taken before the elimination reduces it, else
    None.  With a kernel basis among rows that
    leave the kernel, ker(m) lies inside span(gens): no kernel vector is
    outside the echelon form's span, and escaped is the claim's witness."""
    rng = Rng(57)
    covered = 0
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7), bound=5)
        gens = integer_sparse(m.kernel_vectors() + random_matrix(rng, 2, m.ncols).data)
        k = rng.randint(0, len(gens) - 1)
        gens = gens[k:] + gens[:k]
        leaving = [dict(g) for g in gens
                   if any(mul_vec(m, [g.get(j, 0) for j in range(m.ncols)]))]
        kernel_dim, echelon, escaped = kernel_span_dims(columns(m), gens)
        assert escaped == (leaving[0] if leaving else None)
        assert all(escaped is not g for g in gens)
        assert first_outside_span(echelon, kernel_basis(columns(m), m.nrows)) is None
        covered += escaped is not None and len(echelon) > kernel_dim
    assert covered


def test_kernel_span_rational_generator_row_is_a_type_error():
    """Generators are taken as integer rows, not cleared: a rational entry
    the elimination reads raises TypeError from its gcd, never a wrong
    rank, also when m's own columns are rational.  (A row past the stop at
    kernel_dim is not read; the rank is exact without it.)"""
    for m in ([(1,), (-1,), (0,)], [(Fraction(1, 3),), (Fraction(-1, 3),), (0,)]):
        for gens in ([{0: Fraction(1, 2), 1: Fraction(1, 2)}, {2: 5}],
                     [{2: 5}, {0: 1, 1: 1}, {0: Fraction(1, 2)}],
                     [{0: Fraction(2), 1: 2}]):
            with pytest.raises(TypeError):
                kernel_span_dims(m, gens)


def test_echelon_keeps_each_pivot_row_as_given():
    """A new pivot row is the reduced row itself, divided in place by its
    content: the echelon form holds no second copy of it."""
    rows = [{0: 2, 1: 4}, {0: 1, 2: 3}, {1: 6}]
    echelon = exact._echelon(rows)
    assert echelon == {0: {0: 1, 1: 2}, 1: {1: -2, 2: 3}, 2: {2: -1}}
    assert all(echelon[c] is r for c, r in zip((0, 1, 2), rows))


def test_kernel_span_accepts_empty_generator_rows():
    """Generator rows hold their nonzero entries only, and may be empty."""
    m = [(1,), (-1,), (0,)]
    assert span_claim(kernel_span_dims(m, [{}, {0: 1, 1: 1}, {}, {}, {2: 4}])) == (True, 2, 2)
    assert span_claim(kernel_span_dims(m, [{}, {0: 1}])) == (False, 2, 1)
    assert span_claim(kernel_span_dims(m, [{}])) == (True, 2, 0)
    assert span_claim(kernel_span_dims(m, [])) == (True, 2, 0)
    # a matrix without rows has every generator inside
    assert span_claim(kernel_span_dims([(), (), ()], [{0: 1}, {}, {1: 2}])) == (True, 3, 2)


def test_column_scan_matches_the_rref_pivots():
    """column_scan on random rational matrices, with zero, empty and rank
    deficient ones among them: its pivots are rref's, every functional is
    an integer list vanishing on every column, and there are size - rank of
    them."""
    rng = Rng(55)
    cases = [zeros(3, 4), zeros(2, 1), Matrix([[], []]), Matrix([], ncols=3), identity(3)]
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 9)
        inner = rng.randint(1, min(nr, nc))
        left = random_matrix(rng, nr, inner, bound=7)
        right = random_matrix(rng, inner, nc, bound=7)
        cases += [random_matrix(rng, nr, nc, bound=7),
                  Matrix([mul_vec(Matrix(list(zip(*right.data))), row) for row in left.data])]
    deficient = 0
    for m in cases:
        pivots, annihilator, _ = exact.column_scan(columns(m), m.nrows)
        _, want = m.rref()
        assert pivots == want
        assert len(annihilator) == m.nrows - len(want)
        for a in annihilator:
            assert len(a) == m.nrows and all(type(x) is int for x in a)
            assert all(sum(x * y for x, y in zip(a, col)) == 0 for col in columns(m))
        deficient += len(want) < min(m.nrows, m.ncols)
    assert deficient >= 20


def test_column_scan_annihilator_is_the_reduced_kernel_basis():
    """Over random sets of 1 and 2 integer vectors, zero entries and zero
    vectors included, column_scan's annihilator of the vectors is
    kernel_basis's reduced basis of the matrix with them as rows: form by
    form, in order, each a nonzero integer multiple of the canonical one.
    I_Z(1) and I_p(1) are taken this way."""
    rng = Rng(57)
    for _ in range(400):
        size = rng.randint(2, 7)
        vectors = [[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(size)]
                   for _ in range(rng.randint(1, 2))]
        _, annihilator, _ = exact.column_scan(vectors, size)
        reduced = kernel_basis_oracle(Matrix(vectors)).basis_vectors()
        assert len(annihilator) == len(reduced)
        for form, canonical in zip(annihilator, reduced):
            factor = form[next(i for i, x in enumerate(canonical) if x)]
            assert factor and form == [factor * x for x in canonical]


def deficient_columns(rng, nrows, ncols):
    """Random rational columns of length nrows, some zero and some a
    combination of two earlier ones, so most maps are rank deficient."""
    cols = []
    for j in range(ncols):
        kind = rng.randint(0, 3) if j > 1 else rng.randint(0, 1)
        if kind == 0:
            cols.append([Fraction(0)] * nrows)
        elif kind == 1:
            cols.append([sample_rational(rng, 6) for _ in range(nrows)])
        else:
            a, b = cols[rng.randint(0, j - 1)], cols[rng.randint(0, j - 1)]
            u, v = sample_rational(rng, 4), sample_rational(rng, 4)
            cols.append([u * x + v * y for x, y in zip(a, b)])
    return cols


def test_kernel_basis_is_the_reduced_basis_and_duals_separate_pivots():
    """On random maps with zero and dependent columns, kernel_basis gives
    the two-rref oracle's reduced echelon basis, vector by vector in
    order, each sparse: 1 at its own free column, other entries only at
    pivots right of it.  In a scan either way, each dual is an integer
    functional zero on every other pivot column with its value on its own,
    and the free vectors of a left-to-right scan are Matrix.kernel_vectors'
    free-variable basis."""
    rng = Rng(58)
    deficient = 0
    for _ in range(120):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 9)
        cols = deficient_columns(rng, nrows, ncols)
        m = matrix_of_columns(cols)
        got = list(kernel_basis(cols, nrows))
        want = kernel_basis_oracle(m).basis_vectors()
        assert [[v.get(j, 0) for j in range(ncols)] for v in got] == want
        right = {ncols - 1 - c for c in exact.column_scan(cols[::-1], nrows)[0]}
        for v in got:
            f = min(v)
            assert v[f] == 1 and f not in right and all(v.values())
            assert all(c == f or (c > f and c in right) for c in v)
        for scanned in (cols, cols[::-1]):
            pivots, _, duals = exact.column_scan(scanned, nrows)
            assert len(duals) == len(pivots)
            for c, (dual, value) in zip(pivots, duals):
                assert len(dual) == nrows and all(type(x) is int for x in dual)
                assert value and value == sum(x * y for x, y in zip(dual, scanned[c]))
                assert all(sum(x * y for x, y in zip(dual, scanned[e])) == 0
                           for e in pivots if e != c)
        pivots, _, duals = exact.column_scan(cols, nrows)
        free = [[v.get(j, 0) for j in range(ncols)]
                for v in exact.free_vectors(cols, pivots, duals)]
        assert free == m.kernel_vectors()
        deficient += m.rank() < min(nrows, ncols)
    assert deficient >= 40


def test_column_scan_takes_its_columns_once_and_lazily():
    """column_scan takes an iterable of columns once, in order: over a
    generator it gives the scan of the list, and once its rank is `size`
    it takes at most one more column."""
    rng = Rng(59)
    stopped = 0
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 9)
        cols = deficient_columns(rng, nrows, ncols)
        taken = []
        scan = exact.column_scan((taken.append(c) or c for c in cols), nrows)
        assert scan == exact.column_scan(cols, nrows)
        pivots = scan[0]
        read = pivots[-1] + 1 if len(pivots) == nrows else ncols
        assert len(taken) == min(read + 1, ncols)
        stopped += len(taken) < ncols
    assert stopped >= 10


def test_random_solution_runs_no_elimination(monkeypatch):
    """random_solution reads its pivot variables off column_scan's duals:
    with _echelon gone it still gives the rref reference's solutions."""
    rng = Rng(59)
    cases = []
    for trial in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 9)
        m = matrix_of_columns(deficient_columns(rng, nrows, ncols))
        rhs = ([sample_rational(rng, 5) for _ in range(nrows)] if trial % 2
               else mul_vec(m, [sample_rational(rng, 5) for _ in range(ncols)]))
        cases.append((m, rhs, random_solution_reference(m, rhs, Rng(trial))))
    monkeypatch.setattr(exact, "_echelon", None)
    for trial, (m, rhs, want) in enumerate(cases):
        assert random_solution(columns(m), rhs, Rng(trial)) == want
    assert sum(want is not None for _, _, want in cases) >= 20


def test_kernel_span_dims_eliminates_generator_rows_only(monkeypatch):
    """The map's rank comes from column_scan: the one elimination that
    kernel_span_dims runs is given generator rows, never rows of m."""
    rng = Rng(56)
    cases = []
    for _ in range(10):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7), bound=5)
        gens = integer_sparse(m.kernel_vectors() + random_matrix(rng, 1, m.ncols).data)
        cases.append((m, gens))
    seen = []
    echelon = exact._echelon

    def recording(rows, stop=None):
        rows = list(rows)
        seen.extend(dict(r) for r in rows)
        return echelon(rows, stop)

    monkeypatch.setattr(exact, "_echelon", recording)
    for m, gens in cases:
        seen.clear()
        given = [dict(g) for g in gens]
        kernel_span_dims(columns(m), gens)
        assert seen and all(r in given for r in seen)


def test_subspace_equality_invariant_under_basis_change():
    rng = Rng(45)
    for _ in range(20):
        amb = rng.randint(2, 6)
        k = rng.randint(1, amb)
        s = Subspace.from_vectors(
            amb, [[sample_rational(rng, 5) for _ in range(amb)] for _ in range(k)])
        if s.dim == 0:
            continue
        # random invertible recombination of the basis
        while True:
            mix = [[sample_rational(rng, 3) for _ in range(s.dim)] for _ in range(s.dim)]
            if Matrix(mix).rank() == s.dim:
                break
        basis = s.basis_vectors()
        recombined = []
        for row in mix:
            v = [Fraction(0)] * amb
            for c, b in zip(row, basis):
                v = [x + c * y for x, y in zip(v, b)]
            recombined.append(v)
        assert Subspace.from_vectors(amb, recombined) == s


def test_subspace_equality_is_equivalence():
    a = Subspace.from_vectors(3, [[1, 2, 3], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[1, 3, 4], [2, 5, 7]])
    c = Subspace.from_vectors(3, [[1, 2, 3]])
    assert a == a
    assert (a == b) == (b == a)
    assert a == b
    assert a != c


def test_sum_intersect_dimension_formula():
    """ker [A; B] = ker A meet ker B, so ncols - rank([A; B]) is the
    dimension of the intersection, and ker B lies in ker A iff stacking A
    onto B keeps rank(B): the rank identities behind the secant `overlap`
    and `well_defined`, against an explicit intersection and containment of
    canonical kernels.  Every other A is built from combinations of B's
    rows, so both outcomes of the containment occur."""
    rng = Rng(46)
    contained = 0
    for t in range(20):
        ncols = rng.randint(2, 6)
        b = random_matrix(rng, rng.randint(1, ncols), ncols, bound=4)
        nrows_a = rng.randint(1, ncols)
        if t % 2:
            a = Matrix([[sum((c * row[j] for c, row in zip(coeffs, b.data)), Fraction(0))
                         for j in range(ncols)]
                        for coeffs in random_matrix(rng, nrows_a, b.nrows, bound=4).data])
        else:
            a = random_matrix(rng, nrows_a, ncols, bound=4)
        ker_a, ker_b = kernel_basis_oracle(a), kernel_basis_oracle(b)
        stacked = rank_sparse(a.data + b.data)
        assert ncols - stacked == meet(ker_a, ker_b).dim
        inside = all(contains_vector(ker_a, v) for v in ker_b.basis_vectors())
        assert inside == (stacked == rank_sparse(b.data))
        contained += inside
    assert 0 < contained < 20


def test_random_solution_solves_or_reports_none():
    rng = Rng(47)
    for _ in range(20):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        m = random_matrix(rng, nr, nc, bound=5)
        rhs = [sample_rational(rng, 5) for _ in range(nr)]
        x = random_solution(columns(m), rhs, rng)
        if x is None:
            assert m.solve(rhs) is None
        else:
            assert mul_vec(m, x) == [Fraction(r) for r in rhs]


def random_solution_reference(m, rhs, rng):
    """Oracle: the full rational rref of [m | rhs], free variables drawn as
    integers in [-DRAW, DRAW] in ascending column order, pivot variables
    read off the reduced rows."""
    aug = Matrix([row + [Fraction(b)] for row, b in zip(m.data, rhs)], ncols=m.ncols + 1)
    rows, pivots = aug.rref()
    if m.ncols in pivots:
        return None
    pivset = set(pivots)
    x = [Fraction(0)] * m.ncols
    for j in range(m.ncols):
        if j not in pivset:
            x[j] = Fraction(rng.randint(-DRAW, DRAW))
    for k, c in enumerate(pivots):
        acc = rows[k][m.ncols]
        for j in range(c + 1, m.ncols):
            if j not in pivset and rows[k][j]:
                acc -= rows[k][j] * x[j]
        x[c] = acc
    return x


def assert_solution_contract(m, rhs, x):
    """x solves m·x = rhs exactly, its free coordinates (off the leftmost
    independent columns) are the ints drawn from [-DRAW, DRAW], and its
    pivot coordinates are exact rationals."""
    _, pivots = m.rref()
    assert all(isinstance(x[j], Fraction) if j in pivots
               else type(x[j]) is int and -DRAW <= x[j] <= DRAW for j in range(m.ncols))
    assert mul_vec(m, x) == [Fraction(r) for r in rhs]


def test_random_solution_matches_the_rref_reference():
    """Same draws and same exact values as the rref-based reference on
    wide, rank-deficient, inconsistent and all-integer systems, and on
    systems of the member systems' shape."""
    rng = Rng(51)
    outcomes = set()
    for trial in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 9)
        kind = trial % 4
        if kind == 1:       # rank deficient: a product through a thin inner space
            inner = rng.randint(1, min(nr, nc))
            left = random_matrix(rng, nr, inner, bound=5)
            right = random_matrix(rng, inner, nc, bound=5)
            m = Matrix([mul_vec(Matrix(list(zip(*right.data))), row) for row in left.data])
        elif kind == 3:     # all integers, square and nonsingular
            nr = nc
            m = Matrix([[rng.randint(-4, 4) + (9 if i == j else 0) for j in range(nc)]
                        for i in range(nr)])
        else:
            m = random_matrix(rng, nr, nc, bound=5)
        rhs = [sample_rational(rng, 5) if kind != 3 else rng.randint(-9, 9)
               for _ in range(nr)]
        if kind == 2 and nr > 1:    # inconsistent unless the last row is free
            m = Matrix(m.data[:-1] + [m.data[0]])
            rhs[-1] = rhs[0] + 1
        got = random_solution(columns(m), rhs, Rng(trial))
        want = random_solution_reference(m, rhs, Rng(trial))
        assert got == want
        if got is not None:
            assert_solution_contract(m, rhs, got)
        outcomes.add((kind, got is None))
    assert {(1, False), (2, True), (3, False)} <= outcomes
    # wide systems shaped like the member systems: 1-2 rows (points on a
    # member) and 6-8 rows (a line power), over 30-60 columns
    for trial in range(24):
        nr = rng.randint(1, 2) if trial % 2 else rng.randint(6, 8)
        nc = rng.randint(30, 60)
        if trial % 4 < 2:
            m = random_matrix(rng, nr, nc, bound=9)
        else:
            # a staircase: row i leads at column lead[i] and has an entry at
            # lead[i+1], so its pivot row has an entry at a later pivot column
            lead = [i * (nc // nr) for i in range(nr)] + [nc - 1]
            m = Matrix([[sample_rational(rng, 9) if j > lead[i] and rng.randint(0, 2) else
                         0 for j in range(nc)] for i in range(nr)])
            for i in range(nr):
                v = sample_rational(rng, 9) or Fraction(1)
                m.data[i][lead[i]] = m.data[i][lead[i + 1]] = v
        rhs = [sample_rational(rng, 50) for _ in range(nr)]
        got = random_solution(columns(m), rhs, Rng(1000 + trial))
        assert got == random_solution_reference(m, rhs, Rng(1000 + trial))
        assert_solution_contract(m, rhs, got)


def integer_systems(rng):
    """Seeded random integer matrices: small ones, rank-deficient ones (the
    last row a combination of the first two) and wide systems of 2-10 rows
    over 30-60 columns, the shape of the member and line-power systems."""
    for trial in range(60):
        if trial % 3 == 2:
            nr, nc, bound = rng.randint(2, 10), rng.randint(30, 60), 10 ** 6
        else:
            nr, nc, bound = rng.randint(1, 6), rng.randint(1, 8), 9
        rows = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
        if trial % 3 == 1 and nr > 2:
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        yield Matrix(rows, ncols=nc)


def test_integer_rows_decide_as_their_fractions():
    """A Matrix keeps integer rows as ints, and every result on them equals
    the result on the same matrix given as Fractions; random_solution makes
    the same draws."""
    rng = Rng(61)
    for trial, m in enumerate(integer_systems(rng)):
        q = Matrix([[Fraction(x) for x in row] for row in m.data], ncols=m.ncols)
        assert all(type(x) is int for row in m.data for x in row)
        rhs = [rng.randint(-9, 9) for _ in range(m.nrows)]
        qrhs = [Fraction(b) for b in rhs]
        assert m.rank() == q.rank()
        rows, pivots = m.rref()
        assert (rows, pivots) == q.rref()
        assert all(type(x) is Fraction for row in rows for x in row)
        assert m.kernel_vectors() == q.kernel_vectors()
        assert kernel_vectors(m) == kernel_vectors(q)
        assert m.solve(rhs) == q.solve(qrhs)
        gens = integer_sparse(q.kernel_vectors()) + [{0: 1}]
        assert (kernel_span_dims(columns(m), [dict(g) for g in gens])
                == kernel_span_dims(columns(q), [dict(g) for g in gens]))
        rm, rq = Rng(trial), Rng(trial)
        assert random_solution(columns(m), rhs, rm) == random_solution(columns(q), qrhs, rq)
        assert rm.randint(0, 10 ** 9) == rq.randint(0, 10 ** 9)


def test_fraction_formatting_round_trip():
    assert format_fraction(Fraction(3, 1)) == "3/1"
    assert format_fraction(Fraction(-5, 7)) == "-5/7"
    for q in (Fraction(3), Fraction(-5, 7), Fraction(0)):
        assert Fraction(format_fraction(q)) == q


@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.fractions(max_denominator=50), min_size=ncols, max_size=ncols),
    min_size=1, max_size=6)))
@settings(max_examples=60, deadline=None)
def test_kernel_property_hypothesis(rows):
    m = Matrix(rows)
    k = kernel_vectors(m)
    assert m.rank() + len(k) == m.ncols
    for v in k:
        assert all(x == 0 for x in mul_vec(m, v))
    assert k == kernel_basis_oracle(m).basis_vectors()
    assert rank_sparse(sparse(rows)) == m.rank()
