"""Test oracles: plain dense Fraction arithmetic the package does not need.

Restrictions to a line are coefficient lists, entry k at s^(m-k) t^k; the
binary-form arithmetic below checks them (a restriction of a product is
the product of the restrictions, and so on).  contains_vector is the dense
reduction against a canonical Subspace that exact.first_outside_span is
checked against, and support_in the monomial-support test that
verifiers._eta_in_span is checked against.
"""

from fractions import Fraction

from fermatlines.errors import DimensionMismatch

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
