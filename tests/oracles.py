"""Test oracles: plain dense Fraction arithmetic the package does not need.

Restrictions to a line are coefficient lists, entry k at s^(m-k) t^k; the
binary-form arithmetic below checks them (a restriction of a product is
the product of the restrictions, and so on).  contains_vector is the dense
reduction against a canonical Subspace that exact.first_outside_span is
checked against, and support_in the monomial-support test that
verifiers._eta_in_span is checked against.  sylvester_root_count is the
Sylvester-rank root count that lines.distinct_root_count's Bezoutian is
checked against.

The package restricts integer terms over one denominator; restrict and
restrict_all_partials feed it a HomogPoly cleared that way, and
member_poly reads a family member's integer terms back as the rational
HomogPoly F.
"""

from fractions import Fraction

from fermatlines.errors import DimensionMismatch
from fermatlines.exact import Matrix, clear_denominators
from fermatlines.lines import restrict_partials, restrict_poly
from fermatlines.poly import HomogPoly

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


def cleared(poly):
    """(terms, den): the HomogPoly's coefficients as ints over the lcm of
    their denominators."""
    nums, den = clear_denominators(poly.terms.values())
    return dict(zip(poly.terms, nums)), den


def restrict(poly, line):
    """restrict_poly of a HomogPoly, through its cleared integer terms."""
    terms, den = cleared(poly)
    return restrict_poly(terms, poly.degree, line, den)


def restrict_all_partials(poly, line):
    """restrict_partials of a HomogPoly, through its cleared integer terms."""
    terms, den = cleared(poly)
    return restrict_partials(terms, poly.degree, line, den)


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
