"""Test oracles: plain dense Fraction arithmetic the package does not need.

Restrictions to a line are coefficient lists, entry k at s^(m-k) t^k; the
binary-form arithmetic below checks them (a restriction of a product is
the product of the restrictions, and so on).  contains_vector is the dense
reduction against a canonical Subspace that exact's sparse reduction
against an echelon form (exact.first_outside_span, as the kernel claims'
witnesses use it on kernel_span_dims' echelon form) is checked against,
and support_in the monomial-support test that
verifiers._eta_in_span is checked against.  sylvester_root_count is the
Sylvester-rank root count that lines.distinct_root_count's Bezoutian is
checked against.  matrix_of_columns turns a map given by its columns
into the dense Matrix those oracles take.

The package restricts along a line's integer points s*P + t*Q.
restrict_reference expands a form along any two points term by term in
Fractions: at integer_points(line) it is what lines.restrict_poly must
give exactly, and at the line's normalized rational points
(restrict_rational) it is the restriction along s*p + t*q.  restrict and
restrict_all_partials are restrict_poly of a HomogPoly and of its partials
(poly.term_partials), and member_poly reads a family member's integer terms
back as the rational HomogPoly F.

elimination_order_reference is the kernel claims' generator pipeline
that verifiers._ideal_rows replaced: every product row built pair by
pair, sorted by leftmost column (a stable sort), then the first row of
each leftmost column moved ahead of the rest.

full_tangency_member completes a member of a tangency stratum through the
coordinate line with every transverse term x_i*h (i >= 2) it lacks, each
given a random nonzero coefficient: the full member whose tangency system
verifiers._tangency_system must give for a member that carries only what
the line sees.

SYSTEM_KEYS_REFERENCE and nine_by_six_reference are the coefficient keys
and the 9x6 rows of the `systems` lemma typed out by hand, entry by entry:
verifiers._SYSTEM_KEYS and verifiers._nine_by_six build them from their
index rule.
"""

from fractions import Fraction
from math import comb

from fermatlines.errors import DimensionMismatch
from fermatlines.exact import Matrix, clear_denominators, sample_rational
from fermatlines.lines import restrict_poly
from fermatlines.poly import HomogPoly, all_monomials, term_partials

ZERO = Fraction(0)


def form_add(a, b):
    if len(a) != len(b):
        raise DimensionMismatch("degrees differ")
    return [x + y for x, y in zip(a, b)]


def form_sub(a, b):
    if len(a) != len(b):
        raise DimensionMismatch("degrees differ")
    return [x - y for x, y in zip(a, b)]


def form_mul(a, b):
    """Product of two binary forms given by their coefficient lists."""
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def form_evaluate(coeffs, s, t):
    m = len(coeffs) - 1
    return sum((Fraction(c) * Fraction(s) ** (m - k) * Fraction(t) ** k
                for k, c in enumerate(coeffs)), ZERO)


def matrix_of_columns(columns):
    """The dense Matrix whose columns are the given ones: a map given by its
    columns, as the package's verifiers hold it, for the Matrix-based
    oracles."""
    columns = [list(c) for c in columns]
    return Matrix(zip(*columns), ncols=len(columns))


def contains_vector(space, v) -> bool:
    """Whether the canonical Subspace `space` contains v: v reduced entry
    by entry in Fractions against the reduced echelon basis."""
    if len(v) != space.ambient:
        raise DimensionMismatch("vector length %d != ambient %d" % (len(v), space.ambient))
    w = [Fraction(x) for x in v]
    for row in space.basis_vectors():
        f = w[next(j for j, x in enumerate(row) if x)]
        if f:
            w = [a - f * b for a, b in zip(w, row)]
    return not any(w)


def support_in(poly, mset) -> bool:
    """Whether every monomial of poly lies in the monomial set."""
    return all(m in mset.index for m in poly.terms)


def integer_points(line):
    """(P, Q): the line's points p and q cleared of denominators."""
    return clear_denominators(line.p.coords)[0], clear_denominators(line.q.coords)[0]


def cleared(poly):
    """(terms, den): the HomogPoly's coefficients as ints over the lcm of
    their denominators."""
    nums, den = clear_denominators(poly.terms.values())
    return dict(zip(poly.terms, nums)), den


def restrict_reference(poly, p, q):
    """Coefficients of poly(s*p + t*q), expanded term by term in Fractions:
    each term is its coefficient times the product of its binomial
    expansions (p_i s + q_i t)^e_i."""
    powers = {}
    acc = [ZERO] * (poly.degree + 1)
    for exps, c in poly.terms.items():
        vec = [Fraction(c)]
        for i, e in enumerate(exps):
            if (i, e) not in powers:
                a, b = Fraction(p[i]), Fraction(q[i])
                powers[i, e] = [comb(e, k) * a ** (e - k) * b ** k for k in range(e + 1)]
            vec = form_mul(vec, powers[i, e])
        acc = form_add(acc, vec)
    return acc


def restrict_rational(poly, line):
    """restrict_reference at the line's normalized rational points: the
    restriction along s*p + t*q."""
    return restrict_reference(poly, line.p.coords, line.q.coords)


def restrict(poly, line):
    """restrict_poly of a HomogPoly: its restriction along s*P + t*Q."""
    return restrict_poly(poly.terms, poly.degree, line)


def restrict_all_partials(poly, line):
    """The restrictions along s*P + t*Q of poly's partials, by
    term_partials and restrict_poly."""
    return [restrict_poly(part, max(poly.degree - 1, 0), line)
            for part in term_partials(poly.terms, poly.nvars)]


def member_poly(b):
    """The defining polynomial F of the family member b, as a rational
    HomogPoly read off its integer terms den * F."""
    return HomogPoly(b.shape.nvars, b.shape.d,
                     {m: Fraction(c, b.den) for m, c in b.f_poly().items()})


def sylvester_root_count(coeffs) -> int:
    """Distinct projective roots of the binary form with coefficient list
    `coeffs` from the (2n-1)-square Sylvester matrix of its core u (degree
    n, ascending in t) and u': deg gcd(u, u') = 2n - 1 - rank."""
    nz = [k for k, c in enumerate(coeffs) if c]
    if not nz:
        raise ValueError("zero form has no root divisor")
    core = [Fraction(c) for c in coeffs[nz[0]: nz[-1] + 1]]
    count = int(nz[0] > 0) + int(nz[-1] < len(coeffs) - 1)
    deg = len(core) - 1
    if deg == 0:
        return count
    deriv = [k * c for k, c in enumerate(core)][1:]
    size = 2 * deg - 1
    sylvester = [[ZERO] * i + u + [ZERO] * (size - len(u) - i)
                 for u, shifts in ((core, deg - 1), (deriv, deg)) for i in range(shifts)]
    return count + deg - (size - Matrix(sylvester).rank())


def full_tangency_member(terms, nvars, d, rng):
    """The degree-d form with terms {exponents: coefficient}, plus a random
    nonzero rational coefficient on every degree-d monomial with a positive
    exponent past x1 that terms lacks."""
    full = dict(terms)
    for mono in all_monomials(nvars, d).members:
        if any(mono[2:]) and mono not in full:
            full[mono] = sample_rational(rng, 9) or 1
    return full


def elimination_order_reference(pairs, target):
    """The sparse rows {position in target of x_i*h: L_i} of the products
    L*h, for each (L, lower) of pairs and h in lower, built pair by pair,
    then stably sorted by leftmost column, then partitioned: the first row
    of each leftmost column ahead of the rest."""
    rows = [{target.index[tuple(e + (i == j) for j, e in enumerate(h))]: c
             for i, c in enumerate(form) if c}
            for form, lower in pairs for h in lower]
    firsts, rest = [], []
    for r in sorted(rows, key=min):
        (rest if firsts and min(firsts[-1]) == min(r) else firsts).append(r)
    return firsts + rest


SYSTEM_KEYS_REFERENCE = [(0, 1, 3), (0, 2, 3), (1, 0, 3), (1, 2, 3), (2, 0, 3), (2, 1, 3),
                         (0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 0, 0), (1, 0, 2), (1, 2, 2),
                         (2, 0, 0), (2, 0, 1), (2, 1, 1)]


def nine_by_six_reference(c):
    """The 9x6 coefficient system typed out entry by entry, in the unknowns
    a_ij x_i^2 d/dx_j ordered (01, 02, 10, 12, 20, 21)."""
    z, one = ZERO, Fraction(1)
    return [
        [z, z, c[(0, 1, 3)], z, c[(0, 2, 3)], z],
        [c[(1, 0, 3)], z, z, z, z, c[(1, 2, 3)]],
        [z, c[(2, 0, 3)], z, c[(2, 1, 3)], z, z],
        [one, z, c[(0, 1, 1)], z, c[(0, 2, 1)], z],
        [z, one, c[(0, 1, 2)], z, c[(0, 2, 2)], z],
        [c[(1, 0, 0)], z, one, z, z, c[(1, 2, 0)]],
        [c[(1, 0, 2)], z, z, one, z, c[(1, 2, 2)]],
        [z, c[(2, 0, 0)], z, c[(2, 1, 0)], one, z],
        [z, c[(2, 0, 1)], z, c[(2, 1, 1)], z, one],
    ]
